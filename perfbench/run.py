"""Benchmark of the eppsim library, end to end and per module.

Run from the root of an eppsim checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it repeats units of the workload for about ``--seconds``
seconds, untraced, and reports the end-to-end metrics, with every time scaled
to a reference host speed (see ``hostspeed.py``).  With ``--trace 1`` it
runs one traced unit and one untraced unit and reports the per-module
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
say what ran, on what environment, and what the checks found.  Traced runs
also write their spans to ``perfbench-out/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench-out")

SETUP_SAMPLES = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import eppsim; print(time.perf_counter() - t)"
)
#: Imports of modules outside eppsim, timed the same way: the same kind of
#: work (reading bytecode, loading extension modules), which no change to
#: eppsim can alter.
REFERENCE_PROBE = (
    "import time; t = time.perf_counter(); import numpy, decimal, json, csv, email.parser, "
    "http.client, xml.etree.ElementTree, sqlite3, unittest, asyncio, argparse, ssl, zipfile; "
    "print(time.perf_counter() - t)"
)
#: Median time of REFERENCE_PROBE on a 2-vCPU Intel Xeon guest at 2.1 GHz
#: (Python 3.11, numpy 2.4).  It sets only the scale of ``setup_s``.
REFERENCE_IMPORT_S = 0.24
IMPORTTIME_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import eppsim"
#: Modules that ``import eppsim`` loads; cli and matrixoracle are not among them.
MODULES = ("eppsim", "bellbits", "noisemodels", "recurrence", "dynamics", "montecarlo")

#: The named end-to-end metrics of each workload, as (name, unit, source metric, scale).
#: ``op_p99_ms`` is printed but not declared: see ``untraced_run``.
NAMED = {
    "critical-binary": [("critical_binary_s", "s", "op_p50_ms", 1e-3)],
    "critical-white": [("critical_white_s", "s", "op_p50_ms", 1e-3)],
    "scan": [
        ("channels_per_s", "1/s", "items_per_s", 1.0),
        ("classify_p50_ms", "ms", "op_p50_ms", 1.0),
        ("classify_p95_ms", "ms", "op_tail_ms", 1.0),
        ("classify_p99_ms", "ms", "op_p99_ms", 1.0),
    ],
    "mc": [("pair_rounds_per_s", "1/s", "items_per_s", 1.0)],
}
UNITS = {"op_p50_ms": "ms", "op_tail_ms": "ms", "items_per_s": "1/s",
         "peak_rss_mb": "MB", "setup_s": "s"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": nproc(),
        "cpu": cpu_model(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args, SRC], capture_output=True, text=True, check=True, timeout=60
    )


def setup_s() -> float:
    """Time of ``import eppsim`` in fresh interpreters, scaled to a reference import.

    Import time follows the host's file-system and loader load more than its
    CPU speed, so each import is paired with a reference import made just
    before it in another fresh interpreter; the median of their ratios is
    scaled by ``REFERENCE_IMPORT_S``.
    """
    child(["-c", IMPORT_PROBE])  # writes bytecode caches; not counted
    child(["-c", REFERENCE_PROBE])
    imports, references = [], []
    for _ in range(SETUP_SAMPLES):
        references.append(float(child(["-c", REFERENCE_PROBE]).stdout))
        imports.append(float(child(["-c", IMPORT_PROBE]).stdout))
    print(f"setup: median import {statistics.median(imports):.4f} s, median reference "
          f"import {statistics.median(references):.4f} s, {SETUP_SAMPLES} pairs")
    return REFERENCE_IMPORT_S * statistics.median(i / r for i, r in zip(imports, references))


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds each eppsim module adds to the import, from ``-X importtime``.

    A module's time is its cumulative time less that of the eppsim modules it
    imports, so it includes third-party modules it was first to import.
    """
    out = {}
    done = []  # (depth, name, cumulative us, us of eppsim modules inside)
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        head, cum, raw = line.split("|", 2)
        if not cum.strip().isdigit():
            continue  # the header line
        depth = len(raw) - len(raw.lstrip())
        name = raw.strip()
        inner = 0
        while done and done[-1][0] > depth:
            _, child_name, child_cum, child_inner = done.pop()
            inner += child_cum if child_name.split(".")[0] == "eppsim" else child_inner
        done.append((depth, name, int(cum), inner))
        if name.split(".")[0] == "eppsim":
            out[name.split(".")[-1]] = (int(cum) - inner) * 1e-6
    return out


def module_import_s(samples: int = 3) -> dict[str, float]:
    runs = [parse_importtime(child(["-X", "importtime", "-c", IMPORTTIME_PROBE]).stderr)
            for _ in range(samples)]
    return {m: statistics.median(r.get(m, 0.0) for r in runs) for m in MODULES}


def measure(workload, seconds: float):
    """Untraced units for about ``seconds``, at least one.

    Returns the units and how many raised; the first that raises ends the loop.
    """
    units = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        try:
            units.append(workload.unit(len(units)))
        except Exception:  # counted as a failed operation
            traceback.print_exc()
            return units, 1
        last = perf_counter() - t0
        if perf_counter() - start + last > seconds:
            return units, 0


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_iter"):
        return "ns"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def traced_run(workload, name: str, seed: int, env: dict):
    """One traced unit, then one untraced unit of the same inputs."""
    from tracing import Tracer

    imports = module_import_s()
    tracer = Tracer()
    t0 = perf_counter()
    with tracer.installed():
        traced = workload.unit(0, tracer)
    traced_s = perf_counter() - t0
    t0 = perf_counter()
    plain = workload.unit(0)
    plain_s = perf_counter() - t0
    metrics = {f"{m}.import_s": imports[m] for m in MODULES}
    metrics.update(tracer.layer_metrics())
    metrics["trace.overhead_s"] = traced_s - plain_s
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{name}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed, "environment": env,
                   "metrics": metrics, "spans": tracer.spans}, fh)
    print(f"traced unit {traced_s:.3f} s, untraced unit {plain_s:.3f} s; "
          f"spans in {os.path.relpath(path)}")
    return [traced, plain], metrics


def untraced_run(workload, name: str, seconds: float):
    import numpy as np
    from hostspeed import HostSpeed

    setup = setup_s()
    speed = HostSpeed(workload.calibrate_with)
    with speed.running():
        units, raised = measure(workload, seconds)
    if not units:
        return units, raised, None
    timed = [speed.scaled(start, end) for u in units for start, end in u.ops]
    ops = [op for _, op in timed]
    scaled = sum(ops)
    wall = sum(w for w, _ in timed)
    # The highest percentile, up to the 95th, with at least ten operations
    # beyond it; with fewer than twenty operations, the median.  Beyond the
    # 95th the scan's latencies follow a few slow channels, so the 99th
    # percentile depends on which channels a seed draws; it is printed only.
    tail_q = min(95.0, max(50.0, 100.0 * (1.0 - 10.0 / len(ops))))
    p99_ms = 1e3 * float(np.percentile(ops, 99))
    metrics = {
        "op_p50_ms": 1e3 * statistics.median(ops),
        "op_tail_ms": 1e3 * float(np.percentile(ops, tail_q)),
        "items_per_s": sum(u.items for u in units) / scaled,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "setup_s": setup,
    }
    print(f"{len(units)} units, {len(ops)} operations, "
          f"{sum(u.items for u in units)} {workload.item}s, {wall:.3f} s of wall time, "
          f"{scaled:.3f} s scaled; op_tail_ms is the {tail_q:.4g}th percentile")
    print(speed.summary())
    print(f"metric wall_items_per_s = {sum(u.items for u in units) / wall:.6g} 1/s "
          "(items_per_s unscaled)")
    for named, unit, source, scale in NAMED[name]:
        value = p99_ms if source == "op_p99_ms" else metrics[source]
        print(f"metric {named} = {value * scale:.6g} {unit}")
    for key in ("peak_rss_mb", "setup_s"):
        print(f"metric {key} = {metrics[key]:.6g} {UNITS[key]}")
    return units, raised, metrics


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    workload = WORKLOADS[args.workload](args.seed)
    workload.warm()
    if args.trace:
        units, metrics = traced_run(workload, args.workload, args.seed, env)
        raised = 0
    else:
        units, raised, metrics = untraced_run(workload, args.workload, args.seconds)
        if metrics is None:
            print("perfbench: no unit completed", file=sys.stderr)
            return 1

    attempted = sum(len(u.ops) for u in units) + raised
    try:
        failed, notes = workload.check([u.output for u in units])
    except Exception:  # a check that raises fails every operation it covers
        traceback.print_exc()
        failed, notes = attempted, ["FAIL: the check raised"]
    failed += raised
    for note in notes:
        print("check " + note)
    print(f"metric fail_frac = {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "eppsim", "__init__.py")):
        print("perfbench: src/eppsim not found; run from the root of an eppsim checkout",
              file=sys.stderr)
        sys.exit(2)
    cap = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = cap  # before numpy is imported, here and in children
    sys.path.insert(0, SRC)
    sys.exit(main())
