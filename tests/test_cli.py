"""Command-line interface: configs, outputs, exit codes, determinism."""
import contextlib
import errno
import io
import json
import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

import heatconf
from heatconf import cli

TWO_PI = 2.0 * np.pi

TORUS_MODEL = {"kind": "flat_torus", "params": {"periods": [TWO_PI, TWO_PI]}}
CIRCLE_MODEL = {"kind": "circle", "params": {"length": TWO_PI}}
RECT_MODEL = {"kind": "flat_torus", "params": {"periods": [TWO_PI, 3.1]}}

# The report contract: every command's report.json has exactly these keys.
REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "config", "versions", "basis_conventions", "seed",
                 "timestamp", "results"],
    "properties": {
        "command": {"type": "string"},
        "config": {"type": "object"},
        "versions": {"type": "object"},
        "basis_conventions": {"type": "object"},
        "seed": {"type": "integer"},
        "timestamp": {"type": "string"},
        "results": {"type": "object"},
    },
    "additionalProperties": False,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(args):
    return cli.main(args)


def load_report(out_dir):
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


# the model and resolution of each kind's 40-mode eigenpair file in CI
DUMPS = {
    "circle": (CIRCLE_MODEL, 48),
    "flat_torus": (TORUS_MODEL, 8),
    "sphere2": ({"kind": "sphere2", "params": {"radius": 1.0}}, 16),
    "product_sphere_circle": ({"kind": "product_sphere_circle",
                               "params": {"radius": 1.0, "length": TWO_PI}}, 8),
}


def test_spectrum_dump_and_roundtrip(tmp_path):
    """The eigenpair file of 40 modes on each kind, read back as JSON lines:
    the header holds n, tolerance, model and grid; each record's j, lambda
    and descriptor are the analytic provider's, and its values, gradients and
    hessians equal the provider's jet_block at the header grid to 1e-12."""
    for kind, (model, resolution) in DUMPS.items():
        cfg = write_config(tmp_path, {"model": model, "spectrum": {"count": 40},
                                      "resolution": resolution, "seed": 1},
                           name=f"{kind}.json")
        out = tmp_path / kind
        assert run(["--config", cfg, "--out", str(out), "spectrum"]) == 0
        lines = (out / "eigenpairs" / f"{kind}.jsonl").read_text().splitlines()
        header, records = json.loads(lines[0]), [json.loads(line) for line in lines[1:]]
        manifold = heatconf.ManifoldModel.from_config(model)
        assert set(header) == {"n", "tolerance", "model", "grid"}
        assert header["n"] == manifold.dim and header["tolerance"] == 1e-6
        assert heatconf.ManifoldModel.from_config(header["model"]) == manifold
        grid = heatconf.sample_grid(manifold, resolution)
        points = np.array(header["grid"]["points"])
        assert np.array_equal(points, grid.points)
        assert np.array_equal(header["grid"]["weights"], grid.weights)
        prov = heatconf.analytic_spectrum(manifold, count=40)
        pairs = prov.eigenpairs[:40]
        assert load_report(out)["results"]["spectrum"]["lambdas"] == [p.lam for p in pairs]
        assert [(r["j"], r["lambda"], r["descriptor"]) for r in records] == \
            [(p.index, p.lam, list(p.descriptor)) for p in pairs]
        for key, jets in zip(("values", "gradients", "hessians"),
                             prov.jet_block(0, 40, points)):
            assert_allclose([r[key] for r in records], jets, rtol=0, atol=1e-12)
    assert load_report(tmp_path / "circle")["results"]["spectrum"]["lambdas"][:7] == \
        [0, 1, 1, 4, 4, 9, 9]


@pytest.mark.parametrize("model", [{"kind": "sphere2", "params": {"radius": 1.0}},
                                   CIRCLE_MODEL], ids=["sphere2", "circle"])
def test_spectrum_refuses_a_grid_too_coarse_for_its_modes(tmp_path, capsys, model):
    """40 modes on an 8-point grid are not orthonormal there to the file's
    tolerance: the spectrum command exits 3 with one line and writes no
    eigenpair file."""
    cfg = write_config(tmp_path, {"model": model, "spectrum": {"count": 40},
                                  "resolution": 8})
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(["--config", cfg, "--out", str(out), "spectrum"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("precondition failure: orthonormality check failed")
    assert err.count("\n") == 1, err
    assert not (out / "eigenpairs" / f"{model['kind']}.jsonl").exists()


def test_invalid_kind_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"model": {"kind": "lens_space", "params": {}}})
    assert run(["--config", cfg, "--out", str(tmp_path / "o"), "spectrum"]) == 2


def test_missing_config_exits_2(tmp_path):
    assert run(["--config", str(tmp_path / "nope.json"), "spectrum"]) == 2
    assert run(["--out", str(tmp_path / "o"), "spectrum"]) == 2


def test_defect_scan_outputs(tmp_path):
    cfg = write_config(tmp_path, {"model": TORUS_MODEL, "t_grid": [0.05, 0.02],
                                  "resolution": 12, "seed": 3})
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", str(out), "defect-scan"]) == 0
    rows = load_report(out)["results"]["defect_scan"]["rows"]
    assert len(rows) == 2
    for row in rows:
        assert row["defect_sup"] <= 1e-10
    csv_lines = (out / "tables" / "defect_scan.csv").read_text().splitlines()
    assert csv_lines[0] == "t,q,defect_sup,defect_holder,trace_min,trace_max"
    payload = json.loads((out / "tables" / "defect_scan.json").read_text())
    assert payload["metadata"]["model"] == TORUS_MODEL


def test_report_determinism(tmp_path):
    """Every command's report repeats byte for byte apart from the timestamp
    line, perturb's solver log repeats exactly, and each verify run's
    timings.json lists the criteria it ran, in order."""
    configs = {
        "spectrum": {"model": CIRCLE_MODEL, "spectrum": {"count": 7}, "resolution": 16},
        "defect-scan": {"model": TORUS_MODEL, "t_grid": [0.1], "resolution": 8},
        "gram": {"model": {"kind": "sphere2", "params": {"radius": 1.0}},
                 "t_grid": [0.1], "resolution": 8},
        "perturb": {"model": TORUS_MODEL,
                    "solver": {"k_values": [0.0, 0.001], "resolution": 16}},
        "verify": {"verify": {"criteria": ["circle_scale", "linear_algebra"]}},
    }
    for command, payload in configs.items():
        cfg = write_config(tmp_path, {**payload, "seed": 9}, f"{command}.json")
        outs = tmp_path / command / "a", tmp_path / command / "b"
        stable = []
        for out in outs:
            assert run(["--config", cfg, "--out", str(out), command]) == 0
            lines = (out / "report.json").read_text().splitlines()
            stable.append([line for line in lines if not line.startswith('  "timestamp": ')])
            assert len(stable[-1]) == len(lines) - 1, command
        assert stable[0] == stable[1], command
    for side in "ab":
        timings = json.loads((tmp_path / "verify" / side / "timings.json").read_text())
        assert [t["criterion"] for t in timings["criteria"]] == ["circle_scale",
                                                                 "linear_algebra"]
    log1, log2 = ((tmp_path / "perturb" / side / "solver_log.json").read_text()
                  for side in "ab")
    assert log1 == log2


def test_report_schema(tmp_path):
    import jsonschema
    cfg = write_config(tmp_path, {"model": TORUS_MODEL, "t_grid": [0.1],
                                  "resolution": 8, "seed": 9})
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", str(out), "defect-scan"]) == 0
    jsonschema.validate(load_report(out), REPORT_SCHEMA)


def test_perturb_command(tmp_path):
    cfg = write_config(tmp_path, {
        "model": TORUS_MODEL,
        "solver": {"t": 0.05, "k_values": [0.0, 0.001], "epsilon": 1e-3,
                   "tol": 1e-10, "resolution": 48},
        "seed": 4,
    })
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", str(out), "perturb"]) == 0
    res = load_report(out)["results"]["perturb"]
    assert len(res["runs"]) == 2
    for rec in res["runs"]:
        assert rec["iterations"] <= 20
        assert rec["verify"]["residual_sup"] <= 1e-8
        assert rec["conformal_result"]["injectivity"] > 0
    assert res["family"]["pass"]
    log = json.loads((out / "solver_log.json").read_text())
    assert log["runs"][0]["steps"][0]["step_norm"] > 0


def test_perturb_on_a_3_torus(tmp_path):
    """heatconf perturb on the 3-torus of periods 2 pi at t = 0.2, resolution 12:
    iteration counts, injectivity and the family distance as recorded before
    the solver moved to the coefficient field y."""
    cfg = write_config(tmp_path, {
        "model": {"kind": "flat_torus", "params": {"periods": [TWO_PI] * 3}},
        "solver": {"t": 0.2, "resolution": 12, "k_values": [0.0, 0.001], "f_mode": [1, 0]},
    })
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", str(out), "perturb"]) == 0
    res = load_report(out)["results"]["perturb"]
    assert [r["iterations"] for r in res["runs"]] == [4, 5]
    assert_allclose([r["conformal_result"]["injectivity"] for r in res["runs"]],
                    [0.22160662925226882, 0.22044668311465934], rtol=1e-6)
    assert all(r["verify"]["residual_sup"] <= 1e-8 for r in res["runs"])
    assert_allclose(res["family"]["distance"], 0.002036517769990168, rtol=1e-6)
    assert res["family"]["pass"] is True


def test_perturb_defect_errors_exit_before_any_build(tmp_path, capsys, monkeypatch):
    """A manufactured defect that cannot be built exits 2 with one line before
    the spectrum, the embedding or the solver is built."""
    def no_build(*args, **kwargs):
        raise AssertionError("spectrum built before the defect was checked")

    monkeypatch.setattr(heatconf.spectrum, "analytic_spectrum", no_build)
    torus_1 = {"kind": "flat_torus", "params": {"periods": [TWO_PI]}}
    for name, payload in (("f_mode_too_long", {"model": TORUS_MODEL,
                                               "solver": {"f_mode": [1, 0, 0]}}),
                          ("one_torus", {"model": torus_1, "solver": {"f_mode": [1]}})):
        cfg = write_config(tmp_path, payload, name=f"{name}.json")
        capsys.readouterr()
        assert run(["--config", cfg, "--out", str(tmp_path / name), "perturb"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, (name, err)


def test_perturb_3_torus_takes_the_solver_default_grid(tmp_path, capsys, monkeypatch):
    """A 3-torus config that sets no solver resolution gets the solver's 32
    per axis: at the default t = 0.05 (q = 1790) the preflight asks about
    0.25 GB for Q's refined channels (`perturb.solver_bytes`), and refuses
    N = 32768 against 128 MiB with one line, before any lattice phase table
    is built (for `jet_block` or `pairs`)."""
    def no_phases(*args, **kwargs):
        raise AssertionError("lattice phases built")

    monkeypatch.setattr(heatconf.spectrum.LatticeSpectrum, "_axis_table", no_phases)
    monkeypatch.setattr(heatconf.geometry, "available_bytes", lambda: 2**27)
    cfg = write_config(tmp_path, {"model": {"kind": "flat_torus",
                                            "params": {"periods": [TWO_PI] * 3}}})
    capsys.readouterr()
    assert run(["--config", cfg, "--out", str(tmp_path / "o"), "perturb"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("precondition failure:") and err.count("\n") == 1, err
    assert "N = 32768)" in err and "about 0.25 GB" in err


def test_huge_sample_grid_exits_3(tmp_path, capsys, monkeypatch):
    """defect-scan on a 2-torus at resolution 100000 (1e10 points) exits 3 with
    one line from sample_grid, before any grid array is allocated."""
    monkeypatch.setattr(heatconf.geometry, "available_bytes", lambda: 4 * 2**30)
    cfg = write_config(tmp_path, {"model": TORUS_MODEL, "t_grid": [0.1],
                                  "resolution": 100000})
    capsys.readouterr()
    assert run(["--config", cfg, "--out", str(tmp_path / "o"), "defect-scan"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("precondition failure:") and err.count("\n") == 1, err
    assert "10000000000 points" in err and "the 4.29 GB available" in err


@pytest.mark.parametrize("command, payload, what", [
    ("spectrum", {"model": TORUS_MODEL, "spectrum": {"count": 10**12}},
     "a spectrum of 1e+12 modes"),
    ("defect-scan", {"model": TORUS_MODEL, "t_grid": [0.1], "resolution": 6,
                     "spectrum": {"lambda_t_margin": 1e9}}, "a lattice box of"),
    ("spectrum", {"model": CIRCLE_MODEL, "spectrum": {"lambda_max": 1e14}},
     "2e+07 circle modes"),
], ids=["spectrum-count", "scan-margin", "circle-lambda-max"])
def test_huge_spectrum_window_exits_3(tmp_path, capsys, monkeypatch, command, payload, what):
    """A mode count or an eigenvalue window whose enumeration would not fit in
    memory exits 3 with one line, before the candidate modes are allocated."""
    monkeypatch.setattr(heatconf.geometry, "available_bytes", lambda: 2**28)
    cfg = write_config(tmp_path, payload)
    capsys.readouterr()
    assert run(["--config", cfg, "--out", str(tmp_path / "o"), command]) == 3
    err = capsys.readouterr().err
    assert err.startswith("precondition failure:") and err.count("\n") == 1, err
    assert what in err and "the 0.27 GB available" in err


@pytest.mark.parametrize("payload, window, t, held, floor", [
    ({"model": CIRCLE_MODEL, "spectrum": {"lambda_max": 0.5}}, "0.5", "0.1", 0, 2),
    ({"model": TORUS_MODEL, "spectrum": {"lambda_max": 1}}, "1", "0.1", 4, 5),
    ({"model": {"kind": "product_sphere_circle", "params": {"radius": 1.0, "length": TWO_PI}},
      "spectrum": {"lambda_t_margin": 0.1}}, "1", "0.1", 2, 9),
], ids=["circle-lambda-max", "torus-lambda-max", "s2xs1-margin"])
def test_narrow_scan_window_exits_2(tmp_path, capsys, payload, window, t, held, floor):
    """A defect-scan window with fewer modes than the freeness floor exits 2
    with one line that names the window, t and both counts."""
    cfg = write_config(tmp_path, {**payload, "t_grid": [0.1, 0.05]})
    capsys.readouterr()
    assert run(["--config", cfg, "--out", str(tmp_path / "o"), "defect-scan"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err
    assert f"lambda <= {window} at t = {t} holds {held} non-constant modes" in err
    assert f"freeness floor {floor}" in err and "q_override" not in err


def test_scan_refused_widest_window_exits_3_before_a_narrow_row(tmp_path, capsys,
                                                                  monkeypatch):
    """A scan enumerates its widest window at its first row, so a widest window
    that does not fit in memory exits 3 with one line, though the first row's
    window (lambda <= 1.5 at t = 0.5, 2 modes) is below the freeness floor."""
    monkeypatch.setattr(heatconf.geometry, "available_bytes", lambda: 20000)
    cfg = write_config(tmp_path, {
        "model": {"kind": "product_sphere_circle", "params": {"radius": 1.0, "length": TWO_PI}},
        "t_grid": [0.5, 0.005], "resolution": 4, "spectrum": {"lambda_t_margin": 0.75}})
    capsys.readouterr()
    assert run(["--config", cfg, "--out", str(tmp_path / "o"), "defect-scan"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("precondition failure:") and err.count("\n") == 1, err
    assert "a box of 3.6e+03 sphere x circle modes" in err


@pytest.mark.parametrize("window", [{"lambda_max": 50}, {"lambda_t_margin": 16},
                                    {"lambda_max": 50, "lambda_t_margin": 16}],
                         ids=["lambda-max", "margin", "both"])
def test_scan_refuses_two_windows(tmp_path, capsys, window):
    """A circle defect-scan with `spectrum.lambda_max` or
    `spectrum.lambda_t_margin` exits 0; with both it exits 2 with one line
    that names both keys, since the two windows conflict."""
    cfg = write_config(tmp_path, {"model": CIRCLE_MODEL, "t_grid": [0.1, 0.05],
                                  "spectrum": window})
    capsys.readouterr()
    code = run(["--config", cfg, "--out", str(tmp_path / "o"), "defect-scan"])
    err = capsys.readouterr().err
    if len(window) == 1:
        assert code == 0, err
        return
    assert code == 2
    assert err.startswith("config error:") and err.count("\n") == 1, err
    assert "spectrum.lambda_max" in err and "spectrum.lambda_t_margin" in err


@pytest.mark.parametrize("window", [{"lambda_max": 100}, {"lambda_t_margin": 16}],
                         ids=["lambda-max", "margin"])
def test_scan_refuses_q_override_with_a_window(tmp_path, capsys, window):
    """A window keeps every mode it holds, so a circle defect-scan that also
    sets `q_override` exits 2 with one line that names both keys, instead of
    reporting the window's q."""
    cfg = write_config(tmp_path, {"model": CIRCLE_MODEL, "t_grid": [0.1, 0.05, 0.02],
                                  "q_override": 40, "spectrum": window})
    capsys.readouterr()
    code = run(["--config", cfg, "--out", str(tmp_path / "o"), "defect-scan"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and err.count("\n") == 1, err
    (key,) = window
    assert "q_override" in err and f"spectrum.{key}" in err


@pytest.mark.parametrize("command", ["perturb", "gram"])
def test_embedding_commands_refuse_q_override_with_a_window(tmp_path, capsys, command):
    """`perturb` and `gram` build their embedding under the truncation policy
    that `defect-scan` scans with: a 2-torus config with `q_override` 40 and
    `spectrum.lambda_t_margin` 16 exits 2 with defect-scan's line."""
    cfg = write_config(tmp_path, {"model": TORUS_MODEL, "t_grid": [0.1], "q_override": 40,
                                  "spectrum": {"lambda_t_margin": 16},
                                  "solver": {"resolution": 16}})
    lines = []
    for cmd in ("defect-scan", command):
        capsys.readouterr()
        assert run(["--config", cfg, "--out", str(tmp_path / cmd), cmd]) == 2
        lines.append(capsys.readouterr().err)
    assert lines[0] == lines[1], lines
    assert lines[0].startswith("config error: q_override and spectrum.lambda_t_margin")


def test_perturb_solves_in_the_window(tmp_path, monkeypatch):
    """A 2-torus perturb with `spectrum.lambda_t_margin` 8 at t = 0.05 keeps
    the modes with lambda <= 160, q = 504 (the count policy's q is 400), and
    still converges in 4 steps per k with the family bounds holding."""
    qs = []
    build = heatconf.embedding.build_embedding

    def recorded(*args, **kwargs):
        emb = build(*args, **kwargs)
        qs.append(emb.q)
        return emb

    monkeypatch.setattr(heatconf.embedding, "build_embedding", recorded)
    cfg = write_config(tmp_path, {"model": TORUS_MODEL, "spectrum": {"lambda_t_margin": 8},
                                  "solver": {"k_values": [0.0, 0.001]}})
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", str(out), "perturb"]) == 0
    assert qs == [504]
    res = load_report(out)["results"]["perturb"]
    assert [r["iterations"] for r in res["runs"]] == [4, 4]
    assert all(r["verify"]["residual_sup"] <= 1e-12 for r in res["runs"])
    assert res["family"]["pass"] is True


def test_nan_holder_quotient_is_null_in_the_solver_log(tmp_path, monkeypatch):
    """A Hoelder quotient that comes out NaN reaches solver_log.json, as every
    non-finite number in a JSON output, as null: the file is strict JSON."""
    monkeypatch.setattr(heatconf.analysis, "holder_seminorm_field",
                        lambda *args: float("nan"))
    cfg = write_config(tmp_path, {"model": TORUS_MODEL,
                                  "solver": {"k_values": [0.0], "resolution": 16}})
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", str(out), "perturb"]) == 0

    def refuse(token):
        raise ValueError(f"{token} in solver_log.json")

    (rec,) = json.loads((out / "solver_log.json").read_text(), parse_constant=refuse)["runs"]
    assert rec["verify"]["residual_holder"] is None
    assert rec["conformal_result"]["defect_holder"] is None


@pytest.mark.parametrize("key, value", [("e", 0), ("theta_threshold", -1)])
def test_solver_shift_and_threshold_must_be_positive(tmp_path, capsys, key, value):
    """A zero shift e or a negative smallness threshold exits 2 with one line
    that names the key, before any solver is built."""
    cfg = write_config(tmp_path, {"model": TORUS_MODEL, "solver": {key: value}})
    capsys.readouterr()
    code = run(["--config", cfg, "--out", str(tmp_path / "o"), "perturb"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and err.count("\n") == 1, err
    assert f"solver.{key} must be a positive finite number" in err


def test_perturb_theta_violation_exits_3(tmp_path):
    cfg = write_config(tmp_path, {
        "model": TORUS_MODEL,
        "solver": {"t": 0.05, "k_values": [0.0], "epsilon": 5.0,
                   "resolution": 32},
        "seed": 4,
    })
    assert run(["--config", cfg, "--out", str(tmp_path / "o"), "perturb"]) == 3


def test_perturb_convergence_failure_exits_4(tmp_path):
    cfg = write_config(tmp_path, {
        "model": TORUS_MODEL,
        "solver": {"t": 0.05, "k_values": [0.0], "epsilon": 1e-3,
                   "tol": 1e-30, "max_iter": 4, "resolution": 32},
        "seed": 4,
    })
    assert run(["--config", cfg, "--out", str(tmp_path / "o"), "perturb"]) == 4


def test_verify_subset(tmp_path):
    """verify reports the criteria it ran, in order, and their timings go to
    timings.json, each with its check's budget, and not to report.json."""
    names = ["circle_scale", "linear_algebra"]
    cfg = write_config(tmp_path, {"verify": {"criteria": names}})
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", str(out), "verify"]) == 0
    res = load_report(out)["results"]["verify"]
    assert res["all_passed"] and res["timings"] == "timings.json"
    assert [c["criterion"] for c in res["criteria"]] == names
    text = (out / "report.json").read_text()
    assert '"elapsed_s"' not in text and '"budget_s"' not in text
    timings = json.loads((out / "timings.json").read_text())["criteria"]
    budgets = [check.budget for check in heatconf.acceptance.run_all(names)]
    assert [t["criterion"] for t in timings] == names
    assert [t["budget_s"] for t in timings] == budgets
    assert all(t["elapsed_s"] >= 0 for t in timings)


def test_verify_perturbed_tolerance_fails(tmp_path, monkeypatch):
    """A criterion that fails its gate makes verify exit 1 and report it; the
    gates are constants, so the failing check is put in the registry."""
    failing = lambda: heatconf.acceptance.CheckResult("circle_scale", False,
                                                     {"max_deviation": 1.0, "tol": 1e-8})
    monkeypatch.setitem(heatconf.acceptance.ALL_CHECKS, "circle_scale", failing)
    cfg = write_config(tmp_path, {"verify": {"criteria": ["circle_scale"]}})
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", str(out), "verify"]) == 1
    res = load_report(out)["results"]["verify"]
    assert not res["all_passed"]
    assert res["criteria"][0]["passed"] is False


def test_verify_seed_override_reaches_its_check(tmp_path):
    """A seed override is the seed its check runs with: the rank_laws details
    equal those of check_rank_laws(seed=7) and differ from the default seed's."""
    cfg = write_config(tmp_path, {"verify": {"criteria": ["rank_laws"],
                                             "overrides": {"rank_laws": {"seed": 7}}}})
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", str(out), "verify"]) == 0
    (entry,) = load_report(out)["results"]["verify"]["criteria"]
    seeded = heatconf.acceptance.check_rank_laws(seed=7).details
    assert entry["details"] == seeded
    assert seeded != heatconf.acceptance.check_rank_laws().details


def test_smoothness_budget_validation(tmp_path):
    cfg = write_config(tmp_path, {
        "model": TORUS_MODEL, "t_grid": [0.1],
        "correction": {"l": 2, "eta": [0.0]},
        "analysis": {"s": 2, "alpha": 0.6},
    })
    assert run(["--config", cfg, "--out", str(tmp_path / "o"), "defect-scan"]) == 2


def test_out_env_override(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, {"model": CIRCLE_MODEL, "spectrum": {"count": 3},
                                  "resolution": 8, "seed": 0})
    env_out = tmp_path / "env-out"
    monkeypatch.setenv("HEATCONF_OUT", str(env_out))
    assert run(["--config", cfg, "spectrum"]) == 0
    assert (env_out / "report.json").exists()


@pytest.mark.parametrize("command", ["perturb", "verify"])
def test_out_under_a_regular_file_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                          command):
    """An output directory that is a regular file, or lies under one, exits 2
    with one line naming the path, before any spectrum is built."""
    def no_build(*args, **kwargs):
        raise AssertionError("spectrum built before the output directory was checked")

    monkeypatch.setattr(heatconf.spectrum, "analytic_spectrum", no_build)
    cfg = write_config(tmp_path, {"model": TORUS_MODEL, "solver": {"resolution": 16}})
    blocker = tmp_path / "run.json"
    blocker.write_text("{}")
    for out in (blocker, blocker / "x", blocker / "x" / "y"):
        capsys.readouterr()
        args = ["--out", str(out), command]
        assert run((["--config", cfg] if command == "perturb" else []) + args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert f"{blocker} is not a directory" in err, err
    assert blocker.read_text() == "{}"


@contextlib.contextmanager
def full_disk(name: str):
    """The output `name` fails the writes to its temp file `.<name>.tmp` with
    ENOSPC and no filename, as a full disk fails the flush."""
    real_open = io.open

    def opener(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode and isinstance(file, (str, Path)) and Path(file).name == f".{name}.tmp":
            def no_space(*_):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            fh.write = no_space
        return fh

    with mock.patch("builtins.open", opener), mock.patch("io.open", opener):
        yield


@pytest.mark.parametrize("command, payload, target", [
    ("verify", {"verify": {"criteria": ["linear_algebra"]}}, "timings.json"),
    ("verify", {"verify": {"criteria": ["linear_algebra"]}}, "report.json"),
    ("spectrum", {"model": TORUS_MODEL, "spectrum": {"count": 7}, "resolution": 8},
     "eigenpairs/flat_torus.jsonl"),
    ("defect-scan", {"model": TORUS_MODEL, "t_grid": [0.1], "resolution": 8},
     "tables/defect_scan.csv"),
    ("perturb", {"model": TORUS_MODEL, "solver": {"k_values": [0.0], "resolution": 16}},
     "solver_log.json"),
    ("gram", {"model": TORUS_MODEL, "t_grid": [0.2], "resolution": 6},
     "gram_diagnostics.json"),
], ids=["verify-timings", "verify-report", "spectrum-eigenpairs", "defect-scan-csv",
        "perturb-log", "gram-diagnostics"])
def test_full_disk_while_writing_an_output_exits_3(tmp_path, capsys, command, payload, target):
    """A full disk while an output's temp file `.<name>.tmp` is written (the
    command's first output, and report.json, the last): the run exits 3 with
    one line, not a traceback, that names the output, and leaves neither the
    output nor its temp file."""
    out = tmp_path / "o"
    final = out / target
    tmp = final.with_name(f".{final.name}.tmp")
    cfg = write_config(tmp_path, payload)
    capsys.readouterr()
    with full_disk(final.name):
        assert run(["--config", cfg, "--out", str(out), command]) == 3
    err = capsys.readouterr().err
    assert err.startswith("precondition failure: writing the output:"), err
    assert err.count("\n") == 1 and f"[Errno {errno.ENOSPC}]" in err, err
    assert str(final) in err, err
    assert not final.exists() and not tmp.is_symlink() and not tmp.exists()


def test_a_symlink_at_a_temp_name_is_not_written_through(tmp_path):
    """A stale `.report.json.tmp` that is a symlink to a regular file is
    removed before the report is written: that file keeps its content, and
    the run ends with a regular report.json and no temp file."""
    target = tmp_path / "elsewhere.json"
    target.write_text("{}")
    out = tmp_path / "o"
    out.mkdir()
    tmp = out / ".report.json.tmp"
    tmp.symlink_to(target)
    cfg = write_config(tmp_path, {"verify": {"criteria": ["linear_algebra"]}})
    assert run(["--config", cfg, "--out", str(out), "verify"]) == 0
    assert target.read_text() == "{}"
    assert (out / "report.json").is_file() and not (out / "report.json").is_symlink()
    assert not tmp.exists() and not tmp.is_symlink()
    assert load_report(out)["command"] == "verify"


def test_a_symlink_at_an_output_path_is_replaced(tmp_path):
    """An output path that is a symlink is replaced by the new file, not
    written through: the file it pointed at keeps its content."""
    target = tmp_path / "elsewhere.json"
    target.write_text("{}")
    out = tmp_path / "o"
    out.mkdir()
    (out / "report.json").symlink_to(target)
    cfg = write_config(tmp_path, {"verify": {"criteria": ["linear_algebra"]}})
    assert run(["--config", cfg, "--out", str(out), "verify"]) == 0
    assert not (out / "report.json").is_symlink() and target.read_text() == "{}"
    assert load_report(out)["command"] == "verify"


def test_spectrum_past_the_free_disk_exits_3_before_any_jet(tmp_path, capsys, monkeypatch):
    """A 2-torus dump of 7 modes on 64 points holds 7·64·(1 + 2 + 4) numbers,
    estimated at 8 bytes each (25 KB): with 20 KB free on the disk it exits 3
    with one line before any jet is built and leaves no file; with 30 KB free
    it is written."""
    calls = []
    jet_block = heatconf.spectrum.LatticeSpectrum.jet_block

    def counted(self, *args, **kwargs):
        calls.append(args[:2])
        return jet_block(self, *args, **kwargs)

    monkeypatch.setattr(heatconf.spectrum.LatticeSpectrum, "jet_block", counted)
    cfg = write_config(tmp_path, {"model": TORUS_MODEL, "spectrum": {"count": 7},
                                  "resolution": 8})
    out = tmp_path / "o"
    eig = out / "eigenpairs"
    for free, code in ((20_000, 3), (30_000, 0)):
        monkeypatch.setattr(heatconf.spectrum.shutil, "disk_usage",
                            lambda path, free=free: mock.Mock(free=free))
        calls.clear()
        capsys.readouterr()
        assert run(["--config", cfg, "--out", str(out), "spectrum"]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert calls and (eig / "flat_torus.jsonl").exists()
            continue
        assert err.startswith("precondition failure:") and err.count("\n") == 1, err
        assert "needs about 2.51e-05 GB of disk, more than the 2e-05 GB free" in err, err
        assert calls == [] and list(eig.iterdir()) == []


def test_unusable_output_file_or_config_file_exits_2(tmp_path, capsys):
    """A directory where report.json goes exits 2 with one line that names the
    file; so does a config path that is a directory, as a config error."""
    out = tmp_path / "o"
    (out / "report.json").mkdir(parents=True)
    capsys.readouterr()
    assert run(["--out", str(out), "verify"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: output:") and err.count("\n") == 1, err
    assert str(out / "report.json") in err
    assert run(["--config", str(tmp_path), "--out", str(tmp_path / "p"), "verify"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config file {tmp_path}:") and err.count("\n") == 1


def test_spectrum_value_table_past_memory_exits_3_before_any_jet(tmp_path, capsys,
                                                                  monkeypatch):
    """A 2-torus spectrum at resolution 64 with count 1000 checks its modes'
    orthonormality on a [1000, 4096] value table (32.8 MB): with 10 MB
    available it exits 3 with one line before any jet is built."""
    def no_jets(*args, **kwargs):
        raise AssertionError("jet_block called before the memory check")

    monkeypatch.setattr(heatconf.spectrum.LatticeSpectrum, "jet_block", no_jets)
    monkeypatch.setattr(heatconf.geometry, "available_bytes", lambda: 10**7)
    cfg = write_config(tmp_path, {"model": TORUS_MODEL, "spectrum": {"count": 1000},
                                  "resolution": 64})
    capsys.readouterr()
    assert run(["--config", cfg, "--out", str(tmp_path / "o"), "spectrum"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("precondition failure:") and err.count("\n") == 1, err
    assert "the values of 1000 modes on 4096 grid points needs about 0.03 GB" in err
    assert not (tmp_path / "o" / "eigenpairs" / "flat_torus.jsonl").exists()


def test_malformed_config_values_exit_2(tmp_path, capsys):
    """Missing model params, mistyped or out-of-range values and unknown keys
    end in one stderr line, exit 2."""
    torus_1 = {"kind": "flat_torus", "params": {"periods": [TWO_PI]}}
    scan = {"model": TORUS_MODEL, "t_grid": [0.05]}
    bad = {
        "no_periods": ("defect-scan", {"model": {"kind": "flat_torus", "params": {}},
                                       "t_grid": [0.05], "resolution": 8}),
        "t_grid_string": ("defect-scan", {"model": TORUS_MODEL, "t_grid": "0.1",
                                          "resolution": 8}),
        "resolution_string": ("defect-scan", {**scan, "resolution": "abc"}),
        "rho_string": ("defect-scan", {**scan, "rho": "x"}),
        "solver_resolution_string": ("perturb", {"model": TORUS_MODEL,
                                                 "solver": {"resolution": "abc"}}),
        "solver_k_values_string": ("perturb", {"model": TORUS_MODEL,
                                               "solver": {"k_values": "0"}}),
        "solver_k_values_empty": ("perturb", {"model": TORUS_MODEL,
                                              "solver": {"k_values": []}}),
        "solver_tol_string": ("perturb", {"model": TORUS_MODEL, "solver": {"tol": "1e-10"}}),
        "solver_max_iter_fraction": ("perturb", {"model": TORUS_MODEL,
                                                 "solver": {"max_iter": 2.5}}),
        "alpha_string": ("defect-scan", {**scan, "analysis": {"alpha": "x"}}),
        "correction_l_string": ("defect-scan", {**scan, "correction": {"l": "x"}}),
        "correction_eta_number": ("defect-scan", {**scan, "correction": {"eta": 0.0}}),
        "q_override_string": ("defect-scan", {**scan, "q_override": "x"}),
        "spectrum_count_string": ("defect-scan", {**scan, "spectrum": {"count": "x"}}),
        "f_mode_too_long": ("perturb", {"model": TORUS_MODEL,
                                        "solver": {"f_mode": [1, 0, 0]}}),
        # a wave vector off the lattice of the (2 pi, 3.1) torus, and one past the band
        "f_mode_off_lattice": ("perturb", {"model": RECT_MODEL, "solver": {
            "t": 0.1, "resolution": 24, "f_mode": [0, 1]}}),
        "f_mode_aliased": ("perturb", {"model": TORUS_MODEL, "solver": {
            "resolution": 16, "f_mode": [30, 0]}}),
        "perturb_on_1_torus": ("perturb", {"model": torus_1, "solver": {"f_mode": [1]}}),
        "lambda_t_margin_string": ("defect-scan", {**scan,
                                                   "spectrum": {"lambda_t_margin": "x"}}),
        "solver_not_object": ("perturb", {"model": TORUS_MODEL, "solver": [1]}),
        "correction_not_object": ("defect-scan", {**scan, "correction": [2]}),
        "analysis_not_object": ("defect-scan", {**scan, "analysis": 3}),
        "spectrum_not_object": ("defect-scan", {**scan, "spectrum": "x"}),
        "verify_not_object": ("verify", {"verify": [1]}),
        "verify_unknown_criterion": ("verify", {"verify": {"criteria": ["nope"]}}),
        "verify_criteria_string": ("verify", {"verify": {"criteria": "homothety"}}),
        "verify_unknown_override_criterion": ("verify",
                                              {"verify": {"overrides": {"nope": {}}}}),
        "verify_unknown_override_argument": (
            "verify", {"verify": {"criteria": ["circle_scale"],
                                  "overrides": {"circle_scale": {"nope": 1}}}}),
        "verify_override_not_object": ("verify",
                                       {"verify": {"overrides": {"circle_scale": [1]}}}),
        "verify_criteria_empty": ("verify", {"verify": {"criteria": []}}),
        # a repeated criterion would run twice and be reported twice
        "verify_criteria_repeated": ("verify", {"verify": {
            "criteria": ["linear_algebra", "linear_algebra"]}}),
        # the gates, windows and sizes of the checks are constants; only four take a seed
        "verify_override_tol": ("verify", {"verify": {
            "criteria": ["circle_scale"], "overrides": {"circle_scale": {"tol": 1e-15}}}}),
        "verify_override_residual_tol": ("verify", {"verify": {
            "criteria": ["linear_algebra"],
            "overrides": {"fixed_point": {"residual_tol": 1.0}}}}),
        "verify_override_window": ("verify", {"verify": {
            "criteria": ["linear_algebra"],
            "overrides": {"defect_law": {"uncorrected_window": [0, 9]}}}}),
        "verify_override_unseeded_seed": ("verify", {"verify": {
            "criteria": ["tail_bound"], "overrides": {"tail_bound": {"seed": 1}}}}),
        # one misspelled key per section
        "unknown_top_key": ("defect-scan", {**scan, "resoluton": 8}),
        "unknown_model_key": ("spectrum", {"model": {**CIRCLE_MODEL, "parms": {}}}),
        "unknown_model_param": ("spectrum", {"model": {
            "kind": "circle", "params": {"length": TWO_PI, "radius": 1.0}}}),
        "unknown_analysis_key": ("defect-scan", {**scan, "analysis": {"alpah": 0.3}}),
        "unknown_correction_key": ("defect-scan", {**scan, "correction": {"order": 2}}),
        "unknown_spectrum_key": ("spectrum", {"model": CIRCLE_MODEL,
                                              "spectrum": {"cuont": 3}}),
        "unknown_solver_key": ("gram", {"model": TORUS_MODEL,
                                        "solver": {"resolutoin": 16}}),
        "unknown_verify_key": ("verify", {"verify": {"criterias": ["homothety"]}}),
        # t <= 0, and spectrum counts and windows out of range
        "gram_t_zero": ("gram", {"model": TORUS_MODEL, "t_grid": [0.0]}),
        "gram_t_negative_rho_half": ("gram", {"model": TORUS_MODEL, "rho": 0.5,
                                              "t_grid": [-0.1]}),
        "gram_t_past_one": ("gram", {"model": TORUS_MODEL, "t_grid": [5.0]}),
        "solver_t_zero": ("perturb", {"model": TORUS_MODEL, "solver": {"t": 0.0}}),
        "solver_t_past_one": ("perturb", {"model": TORUS_MODEL, "solver": {"t": 5.0}}),
        "solver_t_negative_rho_half": ("perturb", {"model": TORUS_MODEL, "rho": 0.5,
                                                   "solver": {"t": -0.1}}),
        "spectrum_count_negative": ("spectrum", {"model": {
            "kind": "product_sphere_circle", "params": {"radius": 1.0, "length": TWO_PI}},
            "spectrum": {"count": -5}}),
        "spectrum_count_zero": ("spectrum", {"model": CIRCLE_MODEL,
                                             "spectrum": {"count": 0}}),
        "lambda_max_negative": ("defect-scan", {**scan, "spectrum": {"lambda_max": -1}}),
        "lambda_t_margin_negative": ("defect-scan", {**scan,
                                                     "spectrum": {"lambda_t_margin": -1}}),
        "rho_nan": ("defect-scan", {**scan, "rho": float("nan")}),
        # a repeated k (a vacuous family check), no iteration budget, a tol
        # that no step can meet
        "solver_k_values_repeated": ("perturb", {"model": TORUS_MODEL,
                                                 "solver": {"k_values": [0.0, 0.0]}}),
        "solver_max_iter_zero": ("perturb", {"model": TORUS_MODEL, "solver": {"max_iter": 0}}),
        "solver_tol_negative": ("perturb", {"model": TORUS_MODEL, "solver": {"tol": -1}}),
        # NaN and Infinity, which json parses, a negative seed, an integer past
        # the float range, and an override its default's type rejects
        "theta_threshold_nan": ("perturb", {"model": TORUS_MODEL,
                                            "solver": {"theta_threshold": float("nan")}}),
        "k_values_infinity": ("perturb", {"model": TORUS_MODEL,
                                          "solver": {"k_values": [float("inf")]}}),
        "e_infinity": ("perturb", {"model": TORUS_MODEL, "solver": {"e": float("inf")}}),
        "seed_negative": ("gram", {"model": TORUS_MODEL, "seed": -1}),
        # a negative s would shrink the smallness bound theta and switch it off
        "analysis_s_negative": ("perturb", {"model": TORUS_MODEL, "analysis": {"s": -1}}),
        "torus_period_nan": ("spectrum", {"model": {"kind": "flat_torus", "params": {
            "periods": [float("nan"), 1.0]}}}),
        "resolution_past_float_range": ("defect-scan", {**scan, "resolution": 10**400}),
        # finite parameters whose volume overflows or underflows
        "sphere_radius_volume_overflow": ("gram", {"model": {
            "kind": "sphere2", "params": {"radius": 1e300}}, "t_grid": [0.1]}),
        "product_volume_overflow": ("gram", {"model": {
            "kind": "product_sphere_circle", "params": {"radius": 1e154, "length": 1e300}},
            "t_grid": [0.1]}),
        "torus_volume_overflow": ("gram", {"model": {
            "kind": "flat_torus", "params": {"periods": [1e200, 1e200]}}, "t_grid": [0.1]}),
        "sphere_radius_volume_underflow": ("gram", {"model": {
            "kind": "sphere2", "params": {"radius": 1e-200}}, "t_grid": [0.1]}),
        "torus_volume_underflow": ("gram", {"model": {
            "kind": "flat_torus", "params": {"periods": [1e-200, 1e-200]}}, "t_grid": [0.1]}),
        # a positive volume whose eigenvalue scale (2 pi)^2 / volume^(2/n)
        # overflows or underflows
        "circle_eigenvalue_scale_overflow": ("gram", {"model": {
            "kind": "circle", "params": {"length": 1e-320}}, "t_grid": [0.1]}),
        "circle_eigenvalue_scale_underflow": ("gram", {"model": {
            "kind": "circle", "params": {"length": 1e200}}, "t_grid": [0.1]}),
        "verify_override_points_zero": (
            "verify", {"verify": {"criteria": ["rank_laws"],
                                  "overrides": {"rank_laws": {"points": 0}}}}),
        "verify_override_seed_string": (
            "verify", {"verify": {"criteria": ["linear_algebra"],
                                  "overrides": {"linear_algebra": {"seed": "x"}}}}),
    }
    for name, (command, payload) in bad.items():
        cfg = write_config(tmp_path, payload, name=f"{name}.json")
        capsys.readouterr()
        code = run(["--config", cfg, "--out", str(tmp_path / name), command])
        err = capsys.readouterr().err
        assert code == 2, name
        assert err.startswith("config error:") and err.count("\n") == 1, (name, err)


@pytest.mark.parametrize("kind, key, value", [
    ("flat_torus", "periods", "12"),
    ("flat_torus", "periods", [True, 2]),
    ("sphere2", "radius", True),
    ("circle", "length", "6.5"),
    ("sphere2", "radius", float("nan")),
])
def test_model_params_must_be_json_numbers(tmp_path, capsys, kind, key, value):
    """A model param that is a string, a boolean or not finite exits 2 with one
    line naming it, before any build."""
    cfg = write_config(tmp_path, {"model": {"kind": kind, "params": {key: value}},
                                  "t_grid": [0.1], "resolution": 6})
    code = run(["--config", cfg, "--out", str(tmp_path / "out"), "defect-scan"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"config error: model.params.{key} ") and err.count("\n") == 1, err


def test_parsed_config_holds_the_contract_keys():
    """parse_config returns the CONFIG_KEYS table and the raw document, nothing more."""
    cfg = cli.parse_config({"model": CIRCLE_MODEL, "solver": {"t": 0.1}})
    assert set(vars(cfg)) == set(cli.CONFIG_KEYS) | {"raw"}
    assert cfg.model == heatconf.ManifoldModel.circle(TWO_PI)
    assert cfg.solver["t"] == 0.1 and cfg.analysis["s"] == 2 and cfg.correction is None


def test_no_threads_flag():
    """BLAS threads are pinned through the environment before launch; the CLI
    takes no thread option (the report schema above has no threads key)."""
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["--threads", "2", "verify"])
    assert exc.value.code == 2


def test_gram_command(tmp_path):
    """Each probe's gram_P is P P^T of a batch of one at its point, and the
    repeated-derivative rows of gram_Pc sum to zero, as those of P_c do."""
    model = {"kind": "product_sphere_circle", "params": {"radius": 1.0, "length": TWO_PI}}
    cfg = write_config(tmp_path, {"model": model, "t_grid": [0.2], "resolution": 6,
                                  "seed": 3})
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", str(out), "gram"]) == 0
    assert load_report(out)["results"]["gram"]["points"] == 4
    dump = json.loads((out / "gram_diagnostics.json").read_text())
    manifold = heatconf.ManifoldModel.from_config(model)
    policy = heatconf.TruncationPolicy(rho=1.0)
    provider = heatconf.analytic_spectrum(manifold, count=policy.q(0.2, 3) + 8)
    emb = heatconf.build_embedding(provider, 0.2, policy)
    assert dump["q"] == emb.q
    n = 3
    for entry in dump["points"]:
        P = heatconf.PointwiseRightInverse(emb, np.array([entry["point"]])).P[0]
        want = P @ P.T
        got = np.array(entry["gram_P"])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        Gc = np.array(entry["gram_Pc"])
        assert Gc.shape == (9, 9)
        assert np.max(np.abs(Gc[-n:].sum(axis=0))) <= 1e-13 * np.max(np.abs(Gc))


def _contract_keys(table, prefix=()):
    """Key paths of the leaves of a CONFIG_KEYS table."""
    for key, spec in table.items():
        if isinstance(spec, dict):
            yield from _contract_keys(spec, prefix + (key,))
        else:
            yield prefix + (key,)


# non-finite, negative, zero, huge and mistyped values, and a few in range
EXTREMES = [float("nan"), float("inf"), float("-inf"), -1, 0, 0.5, -1e300, 1e300,
            10**30, 10**400, "x", True, {}, [], [float("nan")], [float("inf")], [-1],
            [1e300], [0.5, 0.25]]
CHEAP_RUNS = {
    "gram": {"model": TORUS_MODEL, "resolution": 6, "t_grid": [0.2]},
    "spectrum": {"model": CIRCLE_MODEL, "resolution": 6, "spectrum": {"count": 5}},
    "defect-scan": {"model": TORUS_MODEL, "t_grid": [0.2, 0.1], "resolution": 6},
    "verify": {"verify": {"criteria": ["linear_algebra"]}},
}


@st.composite
def mutated_configs(draw):
    """A cheap command and its config with one to three CONFIG_KEYS leaves
    replaced by extreme values; the linear_algebra seed override is one more
    leaf."""
    command = draw(st.sampled_from(sorted(CHEAP_RUNS)))
    cfg = json.loads(json.dumps(CHEAP_RUNS[command]))
    value = st.sampled_from(EXTREMES)
    keys = sorted(_contract_keys(cli.CONFIG_KEYS))
    for path in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True)):
        leaf = draw(st.one_of(value, value.map(lambda v: {"linear_algebra": {"seed": v}}))
                    if path == ("verify", "overrides") else value)
        section = cfg
        for key in path[:-1]:
            section = section.setdefault(key, {})
        section[path[-1]] = leaf
    return command, cfg


# where --out points: each case is set up under the temp root by `_out_path`
OUT_PATHS = ("fresh nested directory", "existing directory", "under a regular file",
             "regular file", "report.json a directory", "stale temp file")


def _out_path(root: Path, case: str) -> Path:
    """Set up the output-path case `case` under `root` and return its --out."""
    if case == "fresh nested directory":
        return root / "a" / "b" / "out"
    out = root / "out"
    if case in ("regular file", "under a regular file"):
        out.write_text("{}")
        return out if case == "regular file" else out / "x"
    out.mkdir()
    if case == "report.json a directory":
        (out / "report.json").mkdir()
    elif case == "stale temp file":
        (out / ".report.json.tmp").write_text("stale")
    return out


# the unmutated spectrum run, which writes two outputs, at every output path
@example(("spectrum", CHEAP_RUNS["spectrum"]), "fresh nested directory")
@example(("spectrum", CHEAP_RUNS["spectrum"]), "existing directory")
@example(("spectrum", CHEAP_RUNS["spectrum"]), "under a regular file")
@example(("spectrum", CHEAP_RUNS["spectrum"]), "regular file")
@example(("spectrum", CHEAP_RUNS["spectrum"]), "report.json a directory")
@example(("spectrum", CHEAP_RUNS["spectrum"]), "stale temp file")
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(mutated_configs(), st.sampled_from(OUT_PATHS))
def test_config_contract_holds_for_mutated_configs(case, out_case):
    """Any mutation of a cheap run's config, written to any output path,
    exits 0, 2 or 3 with at most one line on stderr and no warning, and
    leaves no temp file: a stale `.report.json.tmp` stays only when the
    run ends before it writes the report.  MemAvailable reads 256 MB, so a
    request for more is refused before it is allocated."""
    command, cfg = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            mock.patch.object(heatconf.geometry, "available_bytes", lambda: 2**28), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        root = Path(tmp) / "root"
        root.mkdir()
        out = _out_path(root, out_case)
        stale = sorted(root.rglob(".*.tmp"))
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        code = run(["--config", str(path), "--out", str(out), command])
        left = sorted(root.rglob(".*.tmp"))
    assert code in (0, 2, 3), (code, out_case, err.getvalue())
    assert err.getvalue().count("\n") <= 1, err.getvalue()
    assert left == ([] if code == 0 else stale), (code, out_case, left)
