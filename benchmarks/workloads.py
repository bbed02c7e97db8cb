"""The three benchmark workloads: CLI configs from a seed, and output checks.

Each workload is one or more `heatconf` CLI invocations.  Its outputs are
split into operations (one k-solve, one scan row, one criterion); an
operation fails when its invocation exits non-zero or when one of its values
disagrees with `reference.json` (recorded from the seed commit) or with an
acceptance gate.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

TWO_PI = 6.283185307179586
RTOL = 1e-6                     # relative tolerance for float reference values
RESIDUAL_MAX = 1e-8             # fixed_point / conformal_family residual gate
CONTRACTION_MAX = 0.5           # fixed_point contraction gate
SLOPE_UNCORRECTED = (0.85, 1.15)  # defect_law window, uncorrected scan
SLOPE_CORRECTED_MIN = 1.8         # defect_law bound, corrected scan
VERIFY_CRITERIA = ["homothety", "circle_scale", "rank_laws", "right_inverse",
                   "linear_algebra", "tail_bound"]
# default seeds of the seeded acceptance criteria; the workload seed offsets them
VERIFY_SEEDS = {"rank_laws": 20240901, "right_inverse": 20240902,
                "linear_algebra": 20240904}


@dataclass
class Invocation:
    label: str          # names the output directory and the reference entry
    command: str        # heatconf subcommand
    config: dict
    marker: str         # main loop whose first call ends set-up (see child.py)


class Op:
    def __init__(self, name: str):
        self.name = name
        self.errors: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def exact(self, what: str, got, want) -> None:
        self.expect(got == want, f"{what}: {got!r} != reference {want!r}")

    def close(self, what: str, got, want) -> None:
        ok = isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=RTOL)
        self.expect(ok, f"{what}: {got!r} differs from reference {want!r} "
                        f"by more than rtol {RTOL:g}")


def _scan_config(seed: int, corrected: bool) -> dict:
    cfg = {
        "model": {"kind": "product_sphere_circle",
                  "params": {"radius": 1.0, "length": TWO_PI}},
        "t_grid": [0.1, 0.07, 0.05, 0.035, 0.025],
        "rho": 1.0,
        "resolution": 6,
        "spectrum": {"lambda_t_margin": 16},
        "seed": seed,
    }
    if corrected:
        cfg["correction"] = {"l": 2, "eta": [0.0]}
    return cfg


class PerturbTorus:
    name = "perturb-torus2"
    why = ("fixed point on the square 2-torus (q=400, N=48^2): Q(v,v) and its "
           "FFTs, the right inverse, residuals and the injectivity scan")
    ops_per_invocation = {"perturb": 2}

    def variant(self, seed: int) -> str:
        # the manufactured defect points along x or y; sizes do not change
        return "f_mode_x" if seed % 2 == 0 else "f_mode_y"

    def invocations(self, seed: int) -> list[Invocation]:
        f_mode = [1, 0] if self.variant(seed) == "f_mode_x" else [0, 1]
        cfg = {
            "model": {"kind": "flat_torus", "params": {"periods": [TWO_PI, TWO_PI]}},
            "solver": {"t": 0.05, "epsilon": 1e-3, "k_values": [0.0, 0.001],
                       "tol": 1e-10, "resolution": 48, "f_mode": f_mode},
            "seed": seed,
        }
        return [Invocation("perturb", "perturb", cfg, "quadratic")]

    def extract(self, label: str, results: dict) -> dict:
        res = results["perturb"]
        fam = res["family"]
        return {"runs": [{"k": r["k"], "iterations": r["iterations"],
                          "injectivity": r["conformal_result"]["injectivity"]}
                         for r in res["runs"]],
                "family": {k: fam[k] for k in ("distance", "upper_bound", "lower_bound")}}

    def check(self, label: str, results: dict, ref: dict) -> list[Op]:
        res = results["perturb"]
        ops = []
        for run, want in zip(res["runs"], ref["runs"]):
            op = Op(f"k={run['k']}")
            op.exact("k", run["k"], want["k"])
            op.exact("iterations", run["iterations"], want["iterations"])
            op.close("injectivity", run["conformal_result"]["injectivity"],
                     want["injectivity"])
            op.expect(run["conformal_result"]["injectivity_ok"], "injectivity_ok false")
            op.expect(run["verify"]["residual_sup"] <= RESIDUAL_MAX,
                      f"residual {run['verify']['residual_sup']!r} > {RESIDUAL_MAX:g}")
            worst = max((s["contraction"] for s in run["steps"]
                         if s["contraction"] is not None), default=0.0)
            op.expect(worst <= CONTRACTION_MAX,
                      f"contraction {worst!r} > {CONTRACTION_MAX:g}")
            ops.append(op)
        missing = len(ref["runs"]) - len(ops)
        ops += [_missing(f"k-solve {i}") for i in range(max(missing, 0))]
        fam = res["family"] or {}
        for key, want in ref["family"].items():       # family checks ride on the last solve
            ops[-1].close(f"family.{key}", fam.get(key), want)
        ops[-1].expect(fam.get("pass") is True, "family bounds do not hold")
        return ops


class ScanProduct:
    name = "scan-s2xs1"
    why = ("defect scans on S2xS1 without and with the l=2 correction (q up to "
           "21706): spectrum enumeration, jet_block and pullback accumulation")
    ops_per_invocation = {"uncorrected": 5, "corrected": 5}

    def variant(self, seed: int) -> str:
        return "default"        # no input varies without changing problem sizes

    def invocations(self, seed: int) -> list[Invocation]:
        return [Invocation("uncorrected", "defect-scan", _scan_config(seed, False), "pullback"),
                Invocation("corrected", "defect-scan", _scan_config(seed, True), "pullback")]

    def extract(self, label: str, results: dict) -> dict:
        res = results["defect_scan"]
        return {"rows": [{"t": r["t"], "q": r["q"], "defect_sup": r["defect_sup"]}
                         for r in res["rows"]],
                "slope": res["defect_sup_fit"]["slope"]}

    def check(self, label: str, results: dict, ref: dict) -> list[Op]:
        res = results["defect_scan"]
        ops = []
        for row, want in zip(res["rows"], ref["rows"]):
            op = Op(f"{label} t={row['t']}")
            op.exact("t", row["t"], want["t"])
            op.exact("q", row["q"], want["q"])
            op.close("defect_sup", row["defect_sup"], want["defect_sup"])
            ops.append(op)
        ops += [_missing(f"{label} row {i}") for i in range(len(ref["rows"]) - len(ops))]
        slope = (res["defect_sup_fit"] or {}).get("slope")
        ops[-1].close("slope", slope, ref["slope"])    # the fit rides on the last row
        if slope is not None and label == "uncorrected":
            lo, hi = SLOPE_UNCORRECTED
            ops[-1].expect(lo <= slope <= hi, f"uncorrected slope {slope!r} outside [{lo}, {hi}]")
        elif slope is not None:
            ops[-1].expect(slope >= SLOPE_CORRECTED_MIN,
                           f"corrected slope {slope!r} < {SLOPE_CORRECTED_MIN}")
        return ops


class VerifyLight:
    name = "verify-light"
    why = ("six acceptance criteria: large-q torus and circle jet_block, and "
           "the per-point P, E and block-inverse path")
    ops_per_invocation = {"verify": len(VERIFY_CRITERIA)}

    def variant(self, seed: int) -> str:
        return "default"        # the seed moves probe points and random matrices only

    def invocations(self, seed: int) -> list[Invocation]:
        overrides = {c: {"seed": base + seed} for c, base in VERIFY_SEEDS.items()}
        cfg = {"verify": {"criteria": VERIFY_CRITERIA, "overrides": overrides},
               "seed": seed}
        return [Invocation("verify", "verify", cfg, "check")]

    def extract(self, label: str, results: dict) -> dict:
        out = {}
        for c in results["verify"]["criteria"]:
            entry = {"passed": c["passed"], "expected_fail": c["expected_fail"]}
            det = c["details"]
            if c["criterion"] == "homothety":
                entry["q"] = [r["q"] for r in det["rows"]]
            elif c["criterion"] == "circle_scale":
                entry["q"] = det["q"]
            elif c["criterion"] == "tail_bound":
                entry["tail"] = [r["tail"] for r in det["rows"]]
                entry["bound"] = [r["bound"] for r in det["rows"]]
            out[c["criterion"]] = entry
        return out

    def check(self, label: str, results: dict, ref: dict) -> list[Op]:
        got = self.extract(label, results)
        ops = []
        for name, want in ref.items():
            op = Op(name)
            have = got.get(name)
            if have is None:
                op.expect(False, "criterion missing from the report")
            else:
                for key, val in want.items():
                    if key in ("tail", "bound"):
                        for i, (a, b) in enumerate(zip(have[key], val)):
                            op.close(f"{key}[{i}]", a, b)
                    else:
                        op.exact(key, have[key], val)
            ops.append(op)
        return ops


def _missing(name: str) -> Op:
    op = Op(name)
    op.expect(False, "missing from the report")
    return op


WORKLOADS = {w.name: w for w in (PerturbTorus(), ScanProduct(), VerifyLight())}

# lines of report.json that may differ between identical runs
VOLATILE = re.compile(r'^\s*"(timestamp|elapsed_s)": ')


def stable_report(text: str) -> str:
    """report.json without its volatile lines: the timestamp, and verify's
    per-criterion elapsed_s timing."""
    return "\n".join(line for line in text.splitlines() if not VOLATILE.match(line))
