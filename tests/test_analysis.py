"""Norm surrogates and order fitting."""
import itertools
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from heatconf import analysis, cli, fit_order, geometry, perturb
from heatconf.errors import ConfigError

TWO_PI = 2.0 * np.pi


def test_holder_constant_field(circle, torus2):
    """A constant field has quotient 0, on the pair list and the lattice path,
    whatever its trailing component shape."""
    grid = geometry.sample_grid(circle, 64)
    assert analysis.holder_seminorm_field(np.full(len(grid), -2.5),
                                          analysis.holder_pairs(circle, 64), 0.5) == 0.0
    lattice = geometry.sample_grid(torus2, 12)
    assert analysis.holder_seminorm_field(np.full((len(lattice), 2, 2), 0.7),
                                          analysis.holder_pairs(torus2, 12), 0.5) == 0.0


def test_holder_single_mode(circle):
    """cos x on the N-point circle: |cos x - cos y| = 2 |sin((x+y)/2) sin(d/2)|,
    and over grid pairs at offset m h the first factor peaks at 1 for even m and
    at cos(h/2) for odd m."""
    N, alpha = 256, 0.5
    grid = geometry.sample_grid(circle, N)
    got = analysis.holder_seminorm_field(np.cos(grid.points[:, 0]),
                                         analysis.holder_pairs(circle, N), alpha)
    h = TWO_PI / N
    m = np.arange(1, int(circle.injectivity_surrogate / 2.0 / h * (1 + 1e-12)) + 1)
    peak = np.where(m % 2 == 0, 1.0, np.cos(h / 2.0))
    want = np.max(2.0 * np.sin(m * h / 2.0) * peak / (m * h) ** alpha)
    assert_allclose(got, want, rtol=1e-12)


def test_holder_seminorm_dense_pair_oracle(circle):
    grid = geometry.sample_grid(circle, 256)
    x = grid.points[:, 0]
    vals = np.sin(3 * x) + 0.2 * np.cos(7 * x)
    alpha = 0.5
    capped = analysis.holder_seminorm_field(vals, analysis.holder_pairs(circle, 256), alpha)
    # dense brute force over every admissible pair
    radius = circle.injectivity_surrogate / 2.0
    best = 0.0
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            d = geometry.geodesic_distance(circle, grid.points[i], grid.points[j])
            if 0 < d <= radius:
                best = max(best, abs(vals[i] - vals[j]) / d**alpha)
    assert_allclose(capped, best, rtol=1e-12)


def test_holder_monotone_under_refinement(circle):
    coarse = geometry.sample_grid(circle, 64)
    fine = geometry.sample_grid(circle, 128)   # contains the coarse points
    f = lambda p: np.sin(2 * p[:, 0]) + 0.1 * np.sin(9 * p[:, 0])
    h_coarse = analysis.holder_seminorm_field(
        f(coarse.points), analysis.holder_pairs(circle, 64), 0.5)
    h_fine = analysis.holder_seminorm_field(
        f(fine.points), analysis.holder_pairs(circle, 128), 0.5)
    assert h_fine >= h_coarse - 1e-12


def test_holder_pair_cap(circle, monkeypatch):
    grid = geometry.sample_grid(circle, 256)
    vals = np.sin(grid.points[:, 0])
    full = analysis.holder_seminorm_field(vals, analysis.holder_pairs(circle, 256), 0.5)
    monkeypatch.setattr(analysis, "PAIR_CAP", 2000)
    capped = analysis.holder_seminorm_field(vals, analysis.holder_pairs(circle, 256), 0.5)
    assert 0 < capped <= full * (1 + 1e-12)


def test_fit_order_powers():
    t = np.array([0.1, 0.05, 0.02, 0.01, 0.005])
    fit = fit_order(t, t**2)
    assert abs(fit.slope - 2.0) <= 1e-6
    assert fit.r_squared >= 1 - 1e-9
    fit = fit_order(t, 3.0 * t)
    assert_allclose(fit.slope, 1.0, atol=1e-10)
    assert_allclose(fit.intercept, np.log(3.0), atol=1e-10)
    t2 = np.linspace(0.01, 0.1, 8)
    fit = fit_order(t2, t2 + 0.05 * t2**2)
    assert 1.0 < fit.slope < 1.05
    # constant sequences fit to slope zero
    flat = fit_order([0.1, 0.05, 0.02], [2.0, 2.0, 2.0])
    assert_allclose(flat.slope, 0.0, atol=1e-12)


def test_fit_order_validation():
    with pytest.raises(ConfigError):
        fit_order([0.1, 0.2], [1.0, 2.0])
    with pytest.raises(ConfigError):
        fit_order([0.1, 0.2, 0.3], [1.0, -2.0, 3.0])


def test_fit_order_residual_orthogonality():
    rng = np.random.default_rng(3)
    t = np.array([0.1, 0.07, 0.03, 0.01, 0.004])
    y = 2.7 * t**1.3 * np.exp(0.05 * rng.standard_normal(5))
    fit = fit_order(t, y)
    lt = np.log(t)
    resid = np.log(y) - (fit.slope * lt + fit.intercept)
    assert abs(np.dot(resid, lt)) <= 1e-10
    assert abs(np.sum(resid)) <= 1e-10
    assert 0 <= fit.r_squared <= 1


def test_fit_order_scale_equivariance():
    t = np.array([0.1, 0.05, 0.02, 0.01])
    y = t**1.7
    f1 = fit_order(t, y)
    f2 = fit_order(t, 5.0 * y)
    assert_allclose(f2.slope, f1.slope, atol=1e-12)
    assert_allclose(f2.intercept - f1.intercept, np.log(5.0), atol=1e-12)


@pytest.mark.parametrize("periods, r", [((TWO_PI, 3.1), 12), ((TWO_PI, 5.0, 4.2), 6)],
                         ids=["torus2-12", "torus3-6"])
def test_lattice_holder_matches_all_pairs(periods, r):
    """On its sample lattice the torus quotient covers every pair in the radius;
    pairs lying on the radius count up to rounding (slack 1e-12)."""
    model = geometry.ManifoldModel.flat_torus(periods)
    grid = geometry.sample_grid(model, r)
    vals = np.random.default_rng(9).standard_normal((len(grid), 3))
    alpha = 0.45
    got = analysis.holder_seminorm_field(vals, analysis.holder_pairs(model, r), alpha)
    p = grid.points
    d = geometry.geodesic_distance(model, p[:, None, :], p[None, :, :])
    diff = np.max(np.abs(vals[:, None, :] - vals[None, :, :]), axis=-1)
    radius = model.injectivity_surrogate / 2.0
    close = (d > 0) & (d <= radius * (1 + 1e-12))
    assert_allclose(got, np.max(diff[close] / d[close] ** alpha), rtol=1e-12)


def lattice_holder_roll(values, model, r, radius, alpha):
    """Oracle: the lattice quotient with one np.roll copy of the field per offset."""
    n = model.dim
    h = np.asarray(model.periods) / r
    reach = radius * (1.0 + 1e-12)
    field = values.reshape((r,) * n + values.shape[1:])
    box = [np.arange(-int(reach / h_a), int(reach / h_a) + 1) for h_a in h]
    best = 0.0
    for o in itertools.product(*box):
        nonzero = [x for x in o if x]
        if not nonzero or nonzero[0] < 0:
            continue
        d = float(np.sqrt(np.sum((np.array(o) * h) ** 2)))
        if d > reach:
            continue
        diff = np.max(np.abs(field - np.roll(field, o, axis=tuple(range(n)))))
        best = max(best, float(diff) / d**alpha)
    return best


def structured_fields(model, r):
    """Fields on the r-point lattice of a flat torus that the offset bounds
    meet at their tightest and loosest: constant along each axis in turn,
    constant, one axis-aligned mode, one diagonal mode, and integer steps
    whose increments and bounds tie exactly."""
    n = model.dim
    x = geometry.sample_grid(model, r).points
    phase = x * (TWO_PI / np.asarray(model.periods))
    rng = np.random.default_rng(r)
    fields = {}
    for a in range(n):
        lines = rng.standard_normal((r,) * a + (1,) + (r,) * (n - a - 1) + (2,))
        fields[f"constant_along_{a}"] = np.broadcast_to(lines, (r,) * n + (2,)).reshape(-1, 2)
    fields["constant"] = np.full((len(x), 3), -1.25)
    fields["axis_mode"] = np.column_stack([np.cos(phase[:, 0]), 0.5 * np.sin(phase[:, 0])])
    fields["diagonal_mode"] = np.cos(phase.sum(axis=1))[:, None]
    fields["ties"] = (np.indices((r,) * n).sum(axis=0) // 2 % 3).reshape(-1, 1) * 0.25
    return fields


STRUCTURED = [((TWO_PI,), 16), ((TWO_PI, 3.1), 24), ((TWO_PI, 5.0, 4.2), 10)]


@pytest.mark.parametrize("periods, r, comps", [((TWO_PI,), 16, 2), ((TWO_PI, 3.1), 24, 2),
                                               ((TWO_PI, 3.1), 48, 4),
                                               ((TWO_PI, 5.0, 4.2), 10, 3)],
                         ids=["torus1-16", "torus2-24", "torus2-48", "torus3-10"])
def test_lattice_holder_matches_roll_oracle(periods, r, comps):
    """The slice views of the wrap-padded field, compared only at the offsets
    whose bound can win, give the np.roll quotient over every offset bit for
    bit: on random fields and on fields where the bounds are tight, loose or
    tied."""
    model = geometry.ManifoldModel.flat_torus(periods)
    radius = model.injectivity_surrogate / 2.0
    pairs = analysis.holder_pairs(model, r)
    assert isinstance(pairs, analysis.LatticeOffsets)
    rng = np.random.default_rng(r)
    fields = structured_fields(model, r)
    for alpha in (0.3, 0.5):
        fields["random"] = rng.standard_normal((r ** len(periods), comps))
        for name, vals in fields.items():
            assert (analysis.holder_seminorm_field(vals, pairs, alpha)
                    == lattice_holder_roll(vals, model, r, radius, alpha)), (name, alpha)


def test_halved_offset_bound_misses_the_oracle(monkeypatch):
    """The structured fields catch a bound that is too small: with every
    bound halved some quotient falls below the full scan's."""
    bounds = analysis._offset_bounds
    monkeypatch.setattr(analysis, "_offset_bounds",
                        lambda field, pairs: bounds(field, pairs) / 2.0)
    missed = []
    for periods, r in STRUCTURED:
        model = geometry.ManifoldModel.flat_torus(periods)
        radius = model.injectivity_surrogate / 2.0
        pairs = analysis.holder_pairs(model, r)
        for name, vals in structured_fields(model, r).items():
            if (analysis.holder_seminorm_field(vals, pairs, 0.45)
                    != lattice_holder_roll(vals, model, r, radius, 0.45)):
                missed.append((len(periods), name))
    assert missed


@pytest.mark.parametrize("axis", [0, 1])
def test_axis_aligned_field_compares_few_offsets(torus2, axis):
    """A field that varies along one grid axis has bounds equal to each
    offset's largest difference: of the 220 offsets at 48^2 the scan compares
    at most 4, and its quotient is the full scan's; a diagonal mode needs
    them all."""
    r = 48
    grid = geometry.sample_grid(torus2, r)
    pairs = analysis.holder_pairs(torus2, r)
    radius = torus2.injectivity_surrogate / 2.0
    x = grid.points[:, axis]
    vals = np.column_stack([np.cos(x), np.sin(x), 1e-3 * np.cos(2 * x), np.ones_like(x)])
    got, compared = analysis._lattice_holder(vals, pairs, 0.45)
    assert len(pairs.offsets) == 220 and 1 <= compared <= 4
    assert got == lattice_holder_roll(vals, torus2, r, radius, 0.45)
    diagonal = np.cos(grid.points.sum(axis=1))[:, None]
    assert analysis._lattice_holder(diagonal, pairs, 0.45)[1] == 220


@pytest.mark.parametrize("f_mode", [[1, 0], [0, 1]])
def test_perturb_holder_quotients_match_roll_oracle(tmp_path, monkeypatch, f_mode):
    """The solver log's residual_holder and defect_holder on the 48^2 square
    torus are the full lattice scan of `assemble_C`'s residual and defect."""
    fields = []
    assemble = perturb.assemble_C

    def recording(solver, y, f):
        result = assemble(solver, y, f)
        fields.append((result.residual.copy(), result.defect.copy()))
        return result

    monkeypatch.setattr(perturb, "assemble_C", recording)
    model = {"kind": "flat_torus", "params": {"periods": [TWO_PI, TWO_PI]}}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"model": model, "seed": 0, "solver": {
        "t": 0.05, "epsilon": 1e-3, "k_values": [0.0, 0.001], "tol": 1e-10,
        "resolution": 48, "f_mode": f_mode}}))
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--out", str(out), "perturb"]) == 0
    runs = json.loads((out / "solver_log.json").read_text())["runs"]
    torus = geometry.ManifoldModel.flat_torus([TWO_PI, TWO_PI])
    radius = torus.injectivity_surrogate / 2.0
    assert len(runs) == len(fields) == 2
    for run, (residual, defect) in zip(runs, fields):
        oracle = lambda field: lattice_holder_roll(field.reshape(len(field), -1), torus,
                                                   48, radius, 0.45)
        assert run["verify"]["residual_holder"] == oracle(residual)
        assert run["conformal_result"]["defect_holder"] == oracle(defect)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_holder_of_a_non_finite_field_is_nan(circle, torus2, monkeypatch, bad):
    """A NaN or infinite sample gives quotient nan on the dense pair list and
    on the lattice path alike, even where the strided pair list misses it."""
    grid = geometry.sample_grid(circle, 32)
    vals = np.sin(grid.points)
    vals[5] = bad
    assert np.isnan(analysis.holder_seminorm_field(vals, analysis.holder_pairs(circle, 32), 0.5))
    monkeypatch.setattr(analysis, "PAIR_CAP", 100)     # stride 2 skips point 5
    pairs = analysis.holder_pairs(circle, 32)
    assert 5 not in pairs.ii and 5 not in pairs.jj
    assert np.isnan(analysis.holder_seminorm_field(vals, pairs, 0.5))
    lattice = geometry.sample_grid(torus2, 12)
    field = np.cos(lattice.points)
    field[17, 1] = bad
    assert np.isnan(analysis.holder_seminorm_field(
        field, analysis.holder_pairs(torus2, 12), 0.5))
