"""Each demo runs from a scratch directory and prints exactly its recorded output.

The recorded outputs are in ``tests/demo_output/<demo>.txt``.  A change that
alters any printed number of a demo fails here; if the change is meant to,
record the new output and say why in the change's notes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import eppsim

TESTS = Path(__file__).resolve().parent
DEMOS = sorted((TESTS.parent / "demos").glob("*.py"))


def test_every_demo_has_a_recorded_output():
    recorded = sorted(p.stem for p in (TESTS / "demo_output").glob("*.txt"))
    assert recorded == [demo.stem for demo in DEMOS] and len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_its_recorded_output(demo, tmp_path):
    src = Path(eppsim.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, timeout=300
    )
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (TESTS / "demo_output" / f"{demo.stem}.txt").read_bytes()
