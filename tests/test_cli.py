import argparse
import csv
import hashlib
import json
import math
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from eppsim import cli
from eppsim.cli import (
    ITERATE_HEADER,
    MC_HEADER,
    ConfigError,
    main,
    parse_config_text,
    replay_manifest,
)
from eppsim.dynamics import (
    CRITICAL_MAX_ITER,
    DEFAULT_MAX_ITER,
    SCAN_MAX_ITER,
    binary_family,
    find_critical,
    regime_scan,
    secure_by_stability,
)
from eppsim.montecarlo import analytic_trajectory, resource_curve
from eppsim.noisemodels import (
    NOISE_MODELS,
    PAULI_LABELS,
    BinaryNoiseModel,
    NoiseModel,
    noise_from_config,
)
from eppsim.recurrence import BellDiagonalState, ideal_step


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_parse_config_text():
    cfg = parse_config_text("# comment\nmodel = white\n\nf0=0.9\n")
    assert cfg == {"model": "white", "f0": "0.9"}
    with pytest.raises(ConfigError, match=":3:"):
        parse_config_text("a=1\nb=2\noops\n")


def test_iterate_security_trajectory(tmp_path):
    rc = main(
        [
            "iterate",
            "--model", "p1p2", "--p1", "0.96", "--p2", "0.968",
            "--werner", "0.85", "--steps", "12",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    header, rows = read_csv(tmp_path / "iterate.csv")
    assert header == ITERATE_HEADER
    assert len(rows) == 13
    f_cond = [float(r[2]) for r in rows]
    assert f_cond[0] == pytest.approx(0.85)
    assert f_cond[-1] > 0.999
    manifest = json.loads((tmp_path / "iterate.manifest.json").read_text())
    assert manifest["subcommand"] == "iterate"
    assert manifest["outputs"] == ["iterate.csv"]


def test_iterate_ideal_mode_matches_recurrence(tmp_path):
    assert main(["iterate", "--model", "ideal", "--werner", "0.7", "--steps", "5",
                 "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "iterate.csv")
    state = BellDiagonalState.werner(0.7)
    assert float(rows[0][1]) == pytest.approx(0.7)
    for row in rows[1:]:
        state = ideal_step(state)
        assert float(row[1]) == pytest.approx(state.a, abs=1e-12)
    # cell columns carry the embedded flag-zero layout
    assert float(rows[0][4]) == pytest.approx(0.7)   # A00
    assert float(rows[0][5]) == 0.0                  # A01


def test_iterate_from_config_file_with_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("model=white\nf0=0.93\nwerner=0.85\nsteps=4\n")
    assert main(["iterate", "--config", str(cfgfile), "--steps", "6",
                 "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "iterate.csv")
    assert len(rows) == 7  # flag override wins over the file


def test_negative_steps_from_config_is_usage_error(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("model=white\nf0=0.93\nsteps=-3\n")
    out = tmp_path / "out"
    assert main(["iterate", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --steps must be at least 0, got -3\n"
    assert list(out.iterdir()) == []


def test_config_abcd_start_runs_as_from_abcd(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("model=white\nf0=0.95\nabcd=0.7,0.15,0.1,0.05\nsteps=3\n")
    assert main(["iterate", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "iterate.csv")
    start = BellDiagonalState.from_abcd(0.7, 0.15, 0.1, 0.05)
    expected = analytic_trajectory(noise_from_config({"model": "white", "f0": "0.95"}), start, 3)
    assert [[float(x) for x in row[4:]] for row in rows] == [
        state.flat.tolist() for state, _ in expected
    ]


@pytest.mark.parametrize(
    "command, setting",
    [("iterate", "abcd=0.8,0.1,0.1"), ("iterate", "abcd=0.7,0.1,x,0.1"),
     ("iterate", "werner=high"), ("iterate", "steps=1.5"),
     ("mc", "pairs=1e5"), ("mc", "rounds=two"), ("resources", "rounds=two")],
)
def test_a_config_value_that_does_not_parse_names_its_key(tmp_path, capsys, command, setting):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"model=white\nf0=0.95\n{setting}\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 2
    key, _, value = setting.partition("=")
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {key}={value!r}: ") and err.count("\n") == 1
    assert list(out.iterdir()) == []


def test_resources_reads_rounds_from_its_config(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("model=white\nf0=0.95\nrounds=3\n")
    assert main(["resources", "--config", str(cfgfile), "--eps-min", "0", "--eps-max", "1",
                 "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "resources.csv")
    assert [row[0] for row in rows] == ["1", "2", "3"]
    params = json.loads((tmp_path / "resources.manifest.json").read_text())["params"]
    assert params["rounds"] == 3


@pytest.mark.parametrize(
    "command, setting", [("iterate", "wernr=0.8"), ("iterate", "pairs=5"), ("fixpoint", "max_iter=5")]
)
def test_a_config_key_the_subcommand_does_not_read_is_a_usage_error(
    tmp_path, capsys, command, setting
):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"model=white\nf0=0.95\n{setting}\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 2
    key = setting.partition("=")[0]
    assert capsys.readouterr().err == (
        f"error: subcommand {command!r} does not read the config's {key}\n"
    )
    assert list(out.iterdir()) == []


def test_a_config_key_given_twice_is_a_usage_error(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("model=white\nf0=0.95\nf0=0.5\n")
    out = tmp_path / "out"
    assert main(["iterate", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {cfgfile}:3: key 'f0' repeats line 2\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("flag", [[], ["--werner", "0.9"]], ids=["config", "with-werner-flag"])
def test_a_config_with_both_werner_and_abcd_is_a_usage_error(tmp_path, capsys, flag):
    # both keys set the start state, so neither may win over the other silently
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("model=white\nf0=0.95\nwerner=0.8\nabcd=0.7,0.1,0.1,0.1\n")
    out = tmp_path / "out"
    assert main(["iterate", "--config", str(cfgfile), *flag, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: the start state takes werner or abcd, not both\n"
    assert list(out.iterdir()) == []


def test_the_werner_flag_overrides_the_config_abcd(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("model=white\nf0=0.95\nabcd=0.7,0.1,0.1,0.1\nsteps=1\n")
    assert main(["iterate", "--config", str(cfgfile), "--werner", "0.9",
                 "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "iterate.csv")
    assert float(rows[0][1]) == 0.9  # row 0's F is the flag's Werner fidelity


@pytest.mark.parametrize(
    "config, key",
    [("model=white\nf0=0.9x\n", "f0"), ("model=binary\nf0=0.9x\n", "f0"),
     ("model=p1p2\np1=0.96\np2=0.9x\n", "p2")],
)
def test_a_noise_setting_that_does_not_parse_names_its_key(tmp_path, capsys, config, key):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(config)
    out = tmp_path / "out"
    assert main(["fixpoint", "--config", str(cfgfile), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: config {key}='0.9x': could not convert string to float: '0.9x'\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("value", ["maybe", "on", "flase"])
def test_config_both_labs_of_another_spelling_is_a_usage_error(tmp_path, capsys, value):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"model=p1p2\np1=0.96\np2=0.968\nboth_labs={value}\n")
    out = tmp_path / "out"
    assert main(["fixpoint", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert f"both_labs must be 1/true/yes or 0/false/no, got '{value}'" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    missing = tmp_path / "absent.cfg"
    assert main(["fixpoint", "--config", str(missing), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: config file not found: {missing}\n"
    assert list(out.iterdir()) == []


def test_a_config_that_is_a_directory_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["fixpoint", "--config", str(tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err and err.count("\n") == 1
    assert list(out.iterdir()) == []


def test_an_out_that_is_a_file_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("kept\n")
    assert main(["fixpoint", "--model", "white", "--f0", "0.93", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "File exists" in err and err.count("\n") == 1
    assert out.read_text() == "kept\n"


def test_tables_hold_the_library_values_as_they_are(tmp_path):
    # csv and json write each value as it is: a float cell is the repr of the
    # library's float, the JSON table parses back to it exactly, and an
    # emptied ensemble's estimates are empty fields and null.  A numpy whose
    # float64 text differs from float's fails here
    args = ["iterate", "--model", "white", "--f0", "0.95", "--steps", "4"]
    assert main(args + ["--out", str(tmp_path)]) == 0
    assert main(args + ["--format", "json", "--out", str(tmp_path)]) == 0
    noise = noise_from_config({"model": "white", "f0": "0.95"})
    want = [
        [n, state.fidelity, state.conditional_fidelity, keep, *state.flat]
        for n, (state, keep) in enumerate(
            analytic_trajectory(noise, BellDiagonalState.werner(0.85), 4))
    ]
    header, rows = read_csv(tmp_path / "iterate.csv")
    assert rows == [[str(row[0]), *(repr(float(v)) for v in row[1:])] for row in want]
    records = json.loads((tmp_path / "iterate.json").read_text())
    assert [list(record) for record in records] == [sorted(header)] * len(want)
    assert [[record[h] for h in header] for record in records] == want

    mc = ["mc", "--config", str(annihilating_config(tmp_path)), "--werner", "1",
          "--pairs", "10", "--rounds", "1"]
    assert main(mc + ["--out", str(tmp_path)]) == 0
    assert main(mc + ["--format", "json", "--out", str(tmp_path)]) == 0
    assert read_csv(tmp_path / "mc.csv")[1][1] == ["1", "0", "", "", *["0"] * 16]
    record = json.loads((tmp_path / "mc.json").read_text())[1]
    assert record == {**dict.fromkeys(MC_HEADER, 0), "round": 1, "F_hat": None,
                      "F_cond_hat": None}


def test_iterate_binary_model(tmp_path):
    assert main(["iterate", "--model", "binary", "--f0", "0.9", "--werner", "0.8",
                 "--steps", "3", "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "iterate.csv")
    assert len(rows) == 4


def test_missing_noise_model_is_config_error(tmp_path):
    assert main(["iterate", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command", ["fixpoint", "mc", "resources"])
def test_ideal_model_runs_every_noise_subcommand(tmp_path, command):
    # model=ideal is the noiseless channel, so every noise-driven subcommand runs it
    assert main([command, "--model", "ideal", "--out", str(tmp_path)]) == 0
    if command == "fixpoint":
        payload = json.loads((tmp_path / "fixpoint.json").read_text())
        assert payload["F"] == pytest.approx(1.0, abs=1e-11)
        assert payload["regime"] == "security"


#: The fewest keys that each --model choice needs.
_MINIMAL_NOISE_KEYS = {
    "white": {"f0": "0.9"},
    "binary": {"f0": "0.9"},
    "p1p2": {"p1": "0.97", "p2": "0.97"},
    "general": {f"f.{mu}{nu}": "0.0625" for mu in PAULI_LABELS for nu in PAULI_LABELS},
    "ideal": {},
}


@pytest.mark.parametrize("model", NOISE_MODELS)
def test_every_model_choice_builds_a_channel(model):
    # the CLI's --model choices are noise_from_config's table, so they
    # cannot drift apart
    assert dict(cli._NOISE_FLAGS)["--model"]["choices"] == tuple(NOISE_MODELS)
    noise = noise_from_config({"model": model, **_MINIMAL_NOISE_KEYS[model]})
    assert isinstance(noise, (NoiseModel, BinaryNoiseModel))


@pytest.mark.parametrize(
    "args, message",
    [
        (["--model", "ideal", "--f0", "0.5", "--p1", "0.3"],
         "model 'ideal' does not read f0, p1 (its keys: none)"),
        (["--model", "white", "--f0", "0.95", "--p2", "0.1", "--f11", "0.7"],
         "model 'white' does not read f11, p2 (its keys: f0)"),
        (["--model", "binary", "--f0", "0.9", "--f00", "0.5", "--f01", "0.5", "--f10", "0",
          "--f11", "0"], "model 'binary' takes f0 or f00..f11, not both"),
    ],
    ids=["ideal-with-f0-p1", "white-with-p2-f11", "binary-with-f0-and-f00"],
)
def test_a_noise_flag_of_another_model_is_a_usage_error(tmp_path, capsys, args, message):
    # these ran before, ignored the flags and recorded them in the manifest
    out = tmp_path / "out"
    assert main(["fixpoint", *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(out.iterdir()) == []


def test_a_config_setting_of_another_model_is_a_usage_error(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("model=white\nf0=0.95\n")
    out = tmp_path / "out"
    assert main(["fixpoint", "--config", str(cfgfile), "--model", "ideal",
                 "--out", str(out)]) == 2
    assert "model 'ideal' does not read f0" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_non_finite_input_is_usage_error(tmp_path, capsys):
    rc = main(["iterate", "--model", "white", "--f0", "0.9", "--werner", "nan",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "error: non-finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def annihilating_config(tmp_path):
    """A general channel under which a pure Phi+ ensemble annihilates at once:
    every couple suffers X on the target qubit, so it fails the parity check
    with certainty."""
    weights = {f"f.{mu}{nu}": "0" for mu in ("00", "01", "10", "11")
               for nu in ("00", "01", "10", "11")}
    weights["f.0001"] = "1"
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("model=general\n" + "".join(f"{k}={v}\n" for k, v in weights.items()))
    return cfgfile


def test_annihilated_ensemble_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["iterate", "--config", str(annihilating_config(tmp_path)), "--werner", "1",
               "--steps", "2", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: keep probability")
    assert list(out.iterdir()) == []


def test_fixpoint_annihilated_ensemble_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no budget warning either
        rc = main(["fixpoint", "--config", str(annihilating_config(tmp_path)),
                   "--werner", "1", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: keep probability 0.0 at iteration 1")
    assert list(out.iterdir()) == []


def test_non_finite_json_value_writes_no_file(tmp_path, capsys):
    # a NaN tolerance never converges; the manifest would have to hold it
    rc = main(["fixpoint", "--model", "white", "--f0", "0.95", "--tol", "nan",
               "--max-iter", "3", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == "error: --tol must be finite and nonnegative, got nan\n"
    assert list(tmp_path.iterdir()) == []


def test_write_outputs_refuses_non_finite_json(tmp_path):
    args = argparse.Namespace(command="fixpoint", out=str(tmp_path), format="csv", seed=0)
    with pytest.raises(ValueError, match="Out of range float values"):
        cli._write_outputs(args, None, {"residual": float("nan")})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args, flag",
    [
        (["fixpoint", "--model", "white", "--f0", "0.93", "--max-iter", "0"], "--max-iter"),
        (["curve", "--points", "2", "--max-iter", "-5"], "--max-iter"),
        (["fixpoint", "--model", "white", "--f0", "0.93", "--tol", "-1"], "--tol"),
        (["curve", "--points", "2", "--tol", "inf"], "--tol"),
        (["scan", "--points", "2", "--samples", "0"], "--samples"),
        (["scan", "--points", "0", "--samples", "2"], "--points"),
        (["curve", "--points", "0"], "--points"),
        (["iterate", "--model", "white", "--f0", "0.93", "--steps", "-3"], "--steps"),
        (["resources", "--model", "white", "--f0", "0.93", "--rounds", "0"], "--rounds"),
        (["resources", "--model", "white", "--f0", "0.93", "--rounds", "-1"], "--rounds"),
        (["resources", "--model", "white", "--f0", "0.93", "--eps-min", "nan"], "--eps-min"),
        (["resources", "--model", "white", "--f0", "0.93", "--eps-max", "inf"], "--eps-max"),
        (["resources", "--model", "white", "--f0", "0.93", "--eps-min", "0.5", "--eps-max", "0.1"],
         "--eps-min"),
    ],
)
def test_loop_flags_are_validated_before_any_work(tmp_path, capsys, args, flag):
    assert main(args + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must be") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize(
    "command, flag",
    [("scan", "--f00-min"), ("scan", "--f00-max"), ("curve", "--f0-min"), ("curve", "--f0-max")],
)
def test_a_grid_end_that_is_not_finite_is_a_usage_error(tmp_path, capsys, command, flag, value):
    # checked before np.linspace, which would warn and make a grid of NaNs
    args = [command, flag, value, "--points", "1", "--out", str(tmp_path)]
    assert main(args + (["--samples", "1"] if command == "scan" else [])) == 2
    assert capsys.readouterr().err == f"error: {flag} must be finite, got {value}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args, budget",
    [
        (["fixpoint", "--model", "white", "--f0", "0.93"], DEFAULT_MAX_ITER),
        (["curve", "--points", "2"], DEFAULT_MAX_ITER),
        (["scan", "--points", "2", "--samples", "2"], SCAN_MAX_ITER),
        (["critical", "--family", "white-noise", "--halvings", "4",
          "--bracket", "0.88", "0.92"], CRITICAL_MAX_ITER),
        (["iterate", "--model", "white", "--f0", "0.93", "--steps", "1"], None),
    ],
    ids=["fixpoint", "curve", "scan", "critical", "iterate"],
)
def test_manifest_records_the_budget_that_ran(tmp_path, args, budget):
    assert main(args + ["--out", str(tmp_path)]) == 0
    params = json.loads((tmp_path / f"{args[0]}.manifest.json").read_text())["params"]
    if budget is None:
        assert "max_iter" not in params
    else:
        assert params["max_iter"] == budget


def test_fixpoint_json(tmp_path):
    rc = main(["fixpoint", "--model", "p1p2", "--p1", "0.96", "--p2", "0.968",
               "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "fixpoint.json").read_text())
    assert payload["converged"] is True
    assert payload["regime"] == "security"
    assert payload["F_cond"] > 1 - 1e-9
    assert set(payload["state"]) == {
        f"{letter}{p}{a}" for letter in "ABCD" for p in (0, 1) for a in (0, 1)
    }


def test_fixpoint_nonzero_exit_when_budget_too_small(tmp_path):
    rc = main(["fixpoint", "--model", "p1p2", "--p1", "0.96", "--p2", "0.968",
               "--max-iter", "3", "--out", str(tmp_path)])
    assert rc == 1


def test_critical_binary(tmp_path):
    rc = main(["critical", "--family", "binary-uncorrelated",
               "--bracket", "0.75", "0.85", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "critical.json").read_text())
    assert payload["critical"] == pytest.approx(0.771845, abs=1e-5)
    lo, hi = payload["bracket_achieved"]
    assert lo <= payload["critical"] <= hi


@pytest.mark.parametrize("family, bracket", [
    ("binary-uncorrelated", ("0.75", "0.85")), ("white-noise", ("0.88", "0.92"))])
@pytest.mark.parametrize("halvings", [4, 24, 40])
def test_critical_bracket_achieved_holds_the_boundary(tmp_path, family, bracket, halvings):
    # the verdict differs at the two ends of the reported bracket
    rc = main(["critical", "--family", family, "--bracket", *bracket,
               "--halvings", str(halvings), "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "critical.json").read_text())
    lo, hi = payload["bracket_achieved"]
    assert lo < payload["critical"] < hi
    width = math.ldexp(float(bracket[1]) - float(bracket[0]), -halvings)
    assert abs(hi - lo - 2 * width) <= 4 * math.ulp(hi)
    verdicts = [secure_by_stability(*cli._FAMILIES[family](f0)) for f0 in (lo, hi)]
    assert verdicts == [False, True]


def test_critical_beyond_the_last_float_halving(tmp_path):
    # the search stops once no float lies inside the interval; the width of
    # 2**-1100 underflows to zero instead of overflowing
    rc = main(["critical", "--family", "binary-uncorrelated", "--halvings", "1100",
               "--bracket", "0.75", "0.85", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "critical.json").read_text())
    assert payload["critical"] == find_critical(binary_family, (0.75, 0.85), halvings=60)
    assert payload["bracket_achieved"] == [payload["critical"]] * 2


def test_critical_white_noise(tmp_path):
    rc = main(["critical", "--family", "white-noise", "--halvings", "24",
               "--bracket", "0.88", "0.92", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "critical.json").read_text())
    assert 0.8983 < payload["critical"] < 0.8988


def test_critical_reversed_bracket_usage_error(tmp_path):
    rc = main(["critical", "--family", "binary-uncorrelated",
               "--bracket", "0.85", "0.75", "--out", str(tmp_path)])
    assert rc == 2


def test_critical_negative_halvings_usage_error(tmp_path, capsys):
    rc = main(["critical", "--family", "white-noise", "--bracket", "0.88", "0.92",
               "--halvings", "-2", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == "error: --halvings must be at least 0, got -2\n"
    assert list(tmp_path.iterdir()) == []


def test_critical_help_says_halvings_bound_only_the_fallback(capsys):
    # a root found by Newton's method does not depend on --halvings
    with pytest.raises(SystemExit) as exc:
        main(["critical", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert ("--halvings HALVINGS bracket halvings that bound only the fallback search "
            "and set bracket_achieved's width (default 40)") in text
    assert "to solve to" not in text


def test_critical_no_sign_change(tmp_path):
    rc = main(["critical", "--family", "binary-uncorrelated", "--halvings", "4",
               "--bracket", "0.95", "0.99", "--out", str(tmp_path)])
    assert rc == 2


def test_scan_grid(tmp_path):
    rc = main(["scan", "--f00-min", "0.6", "--f00-max", "1.0", "--points", "3",
               "--samples", "12", "--seed", "5", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "scan.csv")
    assert header[0] == "f00"
    assert len(rows) == 3
    fracs = [tuple(float(x) for x in r[2:]) for r in rows]
    assert all(sum(f) == pytest.approx(1.0) for f in fracs)
    assert fracs[-1][2] == 1.0  # noiseless end of the grid is all security


def test_scan_passes_tol_to_regime_scan(tmp_path, monkeypatch):
    seen = []

    def spy(*args, **kwargs):
        seen.append(kwargs["tol"])
        return regime_scan(*args, **kwargs)

    monkeypatch.setattr(cli, "regime_scan", spy)
    assert main(["scan", "--points", "2", "--samples", "2", "--tol", "1e-3",
                 "--out", str(tmp_path)]) == 0
    assert seen == [1e-3, 1e-3]


def test_mc_deterministic_and_replayable(tmp_path):
    args = ["mc", "--model", "p1p2", "--p1", "0.96", "--p2", "0.968",
            "--werner", "0.85", "--pairs", "20000", "--rounds", "4", "--seed", "1"]
    one, two = tmp_path / "one", tmp_path / "two"
    assert main(args + ["--out", str(one)]) == 0
    assert main(args + ["--out", str(two)]) == 0
    assert (one / "mc.csv").read_bytes() == (two / "mc.csv").read_bytes()

    header, rows = read_csv(one / "mc.csv")
    assert header == MC_HEADER
    assert len(rows) == 5
    counts = [int(x) for x in rows[0][4:]]
    assert sum(counts) == 20000

    assert_replays_identically(one, "mc", tmp_path / "replay")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_mc_empty_round_has_no_estimate(tmp_path, fmt):
    # the whole ensemble fails the parity check in round 1: no pairs remain,
    # so F_hat and F_cond_hat are undefined, not zero
    run_dir = tmp_path / "run"
    assert main(["mc", "--config", str(annihilating_config(tmp_path)), "--werner", "1",
                 "--pairs", "10", "--rounds", "2", "--format", fmt,
                 "--out", str(run_dir)]) == 0
    if fmt == "csv":
        header, rows = read_csv(run_dir / "mc.csv")
        assert [row[:4] for row in rows] == [["0", "10", "1.0", "1.0"], ["1", "0", "", ""]]
    else:
        records = json.loads((run_dir / "mc.json").read_text())
        assert [(r["remaining"], r["F_hat"], r["F_cond_hat"]) for r in records] == [
            (10, 1.0, 1.0), (0, None, None)
        ]
    assert_replays_identically(run_dir, "mc", tmp_path / "replay")


def test_mc_ends_at_the_first_round_that_leaves_fewer_than_two_pairs(tmp_path):
    # two pairs make one couple, and round 1 leaves one pair or none: no
    # couple forms after it, so the table stops there, for every seed
    left = set()
    for seed in range(1, 9):
        run_dir = tmp_path / str(seed)
        assert main(["mc", "--model", "white", "--f0", "0.8", "--werner", "0.7",
                     "--pairs", "2", "--rounds", "5", "--seed", str(seed),
                     "--out", str(run_dir)]) == 0
        header, rows = read_csv(run_dir / "mc.csv")
        assert [row[:2] for row in rows] in (
            [["0", "2"], ["1", "1"]], [["0", "2"], ["1", "0"]])
        left.add(rows[1][1])
    assert left == {"0", "1"}


def assert_replays_identically(run_dir, command, replay_dir):
    """Replaying the run's manifest elsewhere reproduces its outputs byte for byte."""
    replay_dir.mkdir()
    manifest = json.loads((run_dir / f"{command}.manifest.json").read_text())
    assert manifest["subcommand"] == command
    (replay_dir / f"{command}.manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    assert replay_manifest(replay_dir / f"{command}.manifest.json") == 0
    for name in manifest["outputs"]:
        assert (replay_dir / name).read_bytes() == (run_dir / name).read_bytes()


REPLAY_CASES = [
    ["iterate", "--model", "p1p2", "--p1", "0.96", "--p2", "0.968", "--both-labs",
     "--werner", "0.85", "--steps", "5"],
    ["fixpoint", "--model", "binary", "--f0", "0.9", "--werner", "0.8"],
    ["critical", "--family", "white-noise", "--halvings", "8", "--bracket", "0.88", "0.92"],
    ["scan", "--f00-min", "0.7", "--f00-max", "0.9", "--points", "2", "--samples", "4",
     "--seed", "3"],
    ["mc", "--model", "white", "--f0", "0.95", "--pairs", "2000", "--rounds", "3",
     "--seed", "2", "--format", "json"],
    ["curve", "--family", "binary-uncorrelated", "--f0-min", "0.8", "--f0-max", "0.9",
     "--points", "3"],
    ["resources", "--model", "p1p2", "--p1", "0.9733", "--p2", "0.9786", "--rounds", "12"],
]


IGNORED_FLAGS = [
    ("iterate", "--seed"), ("iterate", "--tol"), ("iterate", "--max-iter"),
    ("fixpoint", "--seed"), ("fixpoint", "--format"),
    ("critical", "--seed"), ("critical", "--config"), ("critical", "--format"),
    ("scan", "--config"),
    ("mc", "--tol"), ("mc", "--max-iter"),
    ("curve", "--seed"), ("curve", "--config"),
    ("resources", "--seed"), ("resources", "--tol"), ("resources", "--max-iter"),
]
FLAG_VALUES = {"--seed": "1", "--tol": "1e-9", "--max-iter": "10", "--format": "json"}


@pytest.mark.parametrize("command, flag", IGNORED_FLAGS, ids=lambda x: x)
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(tmp_path, capsys, command, flag):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("model=white\nf0=0.95\n")
    value = FLAG_VALUES.get(flag, str(cfgfile))
    args = next(case for case in REPLAY_CASES if case[0] == command)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(args + [flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_holds_only_the_flags_that_ran(tmp_path):
    assert main(["critical", "--family", "white-noise", "--halvings", "4",
                 "--bracket", "0.88", "0.92", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "critical.manifest.json").read_text())
    assert manifest["seed"] is None
    assert set(manifest["params"]) == {"family", "bracket", "halvings", "tol", "max_iter"}


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    # each example runs as written, into its out/ under a temporary directory
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    examples = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("eppsim ")]
    assert sorted(args[0] for args in examples) == sorted(cli._SUBCOMMANDS)
    monkeypatch.chdir(tmp_path)
    for args in examples:
        assert main(args) == 0, args


#: Every integer flag of every subcommand: (subcommand, flag, default, least value).
COUNT_FLAGS = [
    (command, f"--{name}", default, least)
    for command, row in cli._SUBCOMMANDS.items()
    for name, (default, least, _) in row.counts.items()
] + [
    (command, "--max-iter", row.max_iter, 1)
    for command, row in cli._SUBCOMMANDS.items()
    if row.max_iter is not None
]


@pytest.mark.parametrize(
    "command, flag, default, least", COUNT_FLAGS, ids=[c + f for c, f, _, _ in COUNT_FLAGS]
)
def test_every_count_is_declared_once_and_checked_by_one_rule(
    tmp_path, capsys, command, flag, default, least
):
    # --help shows the default
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    entry = text.split(f" {flag} {flag[2:].upper().replace('-', '_')} ", 1)[1]
    assert entry.split(" --", 1)[0].endswith(f"(default {default})")

    # one below the least value is a usage error before any work
    args = next(case for case in REPLAY_CASES if case[0] == command)
    out = tmp_path / "out"
    assert main(args + [flag, str(least - 1), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {flag} must be at least {least}, got {least - 1}\n"
    assert list(out.iterdir()) == []

    # on a noise row a count comes from the config, unless its flag is given
    if not cli._SUBCOMMANDS[command].noise or flag == "--max-iter":
        return
    name = flag[2:]
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"model=white\nf0=0.95\n{name}={least + 1}\n")
    for extra, want in (([], least + 1), ([flag, str(least + 2)], least + 2)):
        run_dir = tmp_path / str(want)
        assert main([command, "--config", str(cfgfile), *extra, "--out", str(run_dir)]) == 0
        params = json.loads((run_dir / f"{command}.manifest.json").read_text())["params"]
        assert params[name] == want


def test_replay_cases_cover_every_subcommand():
    assert sorted(args[0] for args in REPLAY_CASES) == sorted(cli._SUBCOMMANDS)


@pytest.mark.parametrize("args", REPLAY_CASES, ids=lambda args: args[0])
def test_every_subcommand_replays_byte_identically(tmp_path, args):
    run_dir = tmp_path / "run"
    assert main(args + ["--out", str(run_dir)]) == 0
    assert_replays_identically(run_dir, args[0], tmp_path / "replay")


def test_manifest_records_config_resolved_values(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("model=white\nf0=0.95\npairs=3000\nrounds=2\n")
    assert main(["mc", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
    params = json.loads((tmp_path / "mc.manifest.json").read_text())["params"]
    assert (params["pairs"], params["rounds"]) == (3000, 2)
    assert params["config"] == str(cfgfile)
    assert not {"command", "func", "out"} & set(params)


def test_replay_refuses_a_config_that_changed_or_is_gone(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("model=white\nf0=0.95\nwerner=0.8\n")
    run_dir = tmp_path / "run"
    assert main(["iterate", "--config", str(cfgfile), "--steps", "3",
                 "--out", str(run_dir)]) == 0
    manifest = json.loads((run_dir / "iterate.manifest.json").read_text())
    assert manifest["config_sha256"] == hashlib.sha256(cfgfile.read_bytes()).hexdigest()
    assert "config_sha256" not in manifest["params"]
    replay_dir = tmp_path / "replay"
    replay_dir.mkdir()
    replayed = replay_dir / "iterate.manifest.json"
    replayed.write_text(json.dumps(manifest))
    cfgfile.write_text("model=white\nf0=0.95\nwerner=0.9\n")
    assert replay_manifest(replayed) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {cfgfile} changed since the run: sha256 ")
    assert err.count("\n") == 1
    cfgfile.unlink()
    assert replay_manifest(replayed) == 2
    assert capsys.readouterr().err == f"error: config file not found: {cfgfile}\n"
    assert list(replay_dir.iterdir()) == [replayed]


def test_a_relative_config_replays_from_another_directory(tmp_path, monkeypatch):
    (tmp_path / "run.cfg").write_text("model=white\nf0=0.95\nsteps=3\n")
    monkeypatch.chdir(tmp_path)
    assert main(["iterate", "--config", "run.cfg", "--out", "run"]) == 0
    params = json.loads((tmp_path / "run" / "iterate.manifest.json").read_text())["params"]
    assert params["config"] == str(tmp_path / "run.cfg")
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    assert_replays_identically(tmp_path / "run", "iterate", tmp_path / "replay")


def test_mc_seed_outside_64_bits_is_usage_error(tmp_path, capsys):
    assert main(["mc", "--model", "white", "--f0", "0.95", "--pairs", "100", "--rounds", "1",
                 "--seed", "-1", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be in [0, 2**64)") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"], ids=["-1", "2**64"])
def test_scan_seed_outside_64_bits_is_usage_error(tmp_path, capsys, seed):
    assert main(["scan", "--points", "2", "--samples", "2", "--seed", seed,
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: seed must be in [0, 2**64), got {seed}\n"
    assert list(tmp_path.iterdir()) == []


def test_mc_json_format(tmp_path):
    assert main(["mc", "--model", "white", "--f0", "0.95", "--pairs", "5000",
                 "--rounds", "2", "--seed", "2", "--format", "json",
                 "--out", str(tmp_path)]) == 0
    records = json.loads((tmp_path / "mc.json").read_text())
    assert len(records) == 3
    assert records[0]["remaining"] == 5000


def test_curve_family_sweep(tmp_path):
    assert main(["curve", "--family", "binary-uncorrelated", "--f0-min", "0.7",
                 "--f0-max", "0.9", "--points", "6", "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "curve.csv")
    assert header == ["parameter", "F", "F_cond", "iterations", "regime"]
    assert len(rows) == 6
    assert rows[0][4] == "high-noise" and rows[-1][4] == "security"
    assert float(rows[-1][2]) > 1 - 1e-9
    # convergence cost spikes near the regime boundary inside the grid
    iters = [int(r[3]) for r in rows]
    assert max(iters[1:-1]) > 4 * max(iters[0], iters[-1])


def test_curve_nonzero_exit_at_marginal_point(tmp_path):
    # f0 = 0.75 sits exactly at the onset of the intermediate regime and
    # cannot converge within any practical budget
    rc = main(["curve", "--family", "binary-uncorrelated", "--f0-min", "0.75",
               "--f0-max", "0.75", "--points", "1", "--max-iter", "5000",
               "--out", str(tmp_path)])
    assert rc == 1


def test_resources_csv(tmp_path):
    assert main(["resources", "--model", "p1p2", "--p1", "0.9733", "--p2", "0.9786",
                 "--werner", "0.85", "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "resources.csv")
    assert header == ["round", "epsilon", "pairs_required"]
    eps = [float(r[1]) for r in rows]
    n = [int(r[2]) for r in rows]
    assert all(1e-4 <= e <= 1e-1 for e in eps)
    assert all(b > a for a, b in zip(n, n[1:]))  # cost grows round over round


def test_resources_cost_past_2_53_is_an_error(tmp_path, capsys):
    # white noise at f0 = 0.9 doubles the cost and more each round; from
    # round 34 on it is past 2**53, where a float holds no exact count (and
    # from round 654 on it overflows)
    args = ["resources", "--model", "white", "--f0", "0.9", "--eps-min", "0"]
    noise = noise_from_config({"model": "white", "f0": "0.9"})
    *_, (_, _, cost33), (_, _, cost34) = resource_curve(noise, BellDiagonalState.werner(0.85), 34)
    assert cost33 <= 2**53 < cost34
    assert main(args + ["--rounds", "33", "--out", str(tmp_path / "33")]) == 0
    _, rows = read_csv(tmp_path / "33" / "resources.csv")
    assert rows[-1][2] == str(math.ceil(cost33))
    assert main(args + ["--rounds", "34", "--out", str(tmp_path / "34")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "round 34 is 9.395e+15, past 2**53" in err
    assert err.count("\n") == 1
    assert list((tmp_path / "34").iterdir()) == []


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "eppsim" in capsys.readouterr().out
