"""The benchmark's workloads: the argv list each one runs and the check on each output.

The workload seed sets the job order, the corpus seeds and ``--seed``; the
program only ever sees the generated argv.  Why each workload exists is in
NOTES.md.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from hmtlab.functionals import RadialProfile, h_functional, ln_norm_pow, singular_mt
from hmtlab.quad_core import make_grid

WORKLOADS = ("green_fine", "certify", "search")

# |c_g - oracle| today is <= 5e-13; a shift of 1e-6 must fail.
C_G_TOL = 1e-9
# Zero-potential corpora transplant through the image grid: defects are rounding (<= 1.1e-15).
ZERO_DEFECT_TOL = 1e-13
# Hyperbolic L^n norm before vs. after rearrange-demo, relative.  Rearrangement keeps
# int u^n dv_H up to a second-order cell-quantization term: 1.2e-6 to 1.2e-5 at 2048 nodes.
REARRANGE_NORM_TOL = 1e-4
# Values recomputed from a returned search profile against the reported ones, relative.
RECOMPUTE_TOL = 1e-12


class CheckFailed(Exception):
    """A job's output disagrees with an independent recomputation or an invariant."""


@dataclass(frozen=True)
class Job:
    kind: str
    argv: Tuple[str, ...]
    params: Dict[str, object] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _green_fine(rng: np.random.Generator) -> List[Job]:
    return [
        Job("green", ("green", "--n", str(n), "--epsilon", eps, "--grid-points", "100000",
                      "--tol", "1e-10"), {"n": n, "epsilon": float(eps)})
        for n in (2, 3, 4) for eps in ("1e-4", "1e-5", "1e-6")
    ]


def _certify(rng: np.random.Generator) -> List[Job]:
    jobs = []
    for n in (2, 3):
        for potential in ("hardy", "zero", "hardy+lambda=1.0"):
            for corpus_seed in rng.integers(0, 2**31 - 1, size=2):
                jobs.append(Job(
                    "verify",
                    ("verify", "--n", str(n), "--potential", potential, "--grid-points", "4096",
                     "--t-points", "8192", "--tol", "1e-10", "--corpus-size", "200",
                     "--seed", str(corpus_seed)),
                    {"n": n, "potential": potential},
                ))
        jobs.append(Job("sweep", ("sweep", "--mode", "boundedness", "--n", str(n)), {"rows": 20}))
        jobs.append(Job("sweep", ("sweep", "--mode", "divergence", "--k-max", "12", "--n", str(n)),
                        {"rows": 12}))
        jobs.append(Job("rearrange", ("rearrange-demo", "--n", str(n),
                                      "--seed", str(rng.integers(0, 2**31 - 1)))))
    return jobs


def _search(rng: np.random.Generator) -> List[Job]:
    seed = str(rng.integers(0, 2**31 - 1))
    return [Job("search_mt", ("search", "--mode", "mt", "--seed", seed)),
            Job("search_lambda1", ("search", "--mode", "lambda1", "--seed", seed))]


def make_jobs(workload: str, seed: int) -> List[Job]:
    """The job list of one pass, in the order the seed gives."""
    rng = np.random.default_rng(seed)
    jobs = {"green_fine": _green_fine, "certify": _certify, "search": _search}[workload](rng)
    return [jobs[i] for i in rng.permutation(len(jobs))]


def load_oracles(root: Path) -> dict:
    return json.loads((root / "tests" / "data" / "oracles.json").read_text(encoding="utf-8"))


def check_output(job: Job, text: str, oracles: dict) -> Dict[str, float]:
    """Raise CheckFailed unless ``text`` is a correct output for ``job``.

    Returns the values the benchmark reports from this output (identity
    defects, search optima); those are data, never gated here.
    """
    doc = json.loads(text)
    return _CHECKS[job.kind](job, doc, oracles)


def _check_green(job: Job, doc: dict, oracles: dict) -> Dict[str, float]:
    key = f"{job.params['epsilon']:.0e}"
    oracle = oracles["c_g_hardy"][str(job.params["n"])]["per_eps"][key]
    c_g_err = abs(doc["c_g"] - oracle)
    if not c_g_err <= C_G_TOL:
        raise CheckFailed(f"c_g {doc['c_g']!r} vs oracle {oracle!r}")
    if not np.all(np.diff(np.asarray(doc["G"], dtype=float)) < 0.0):
        raise CheckFailed("G is not strictly decreasing")
    return {"c_g_err": c_g_err, "residual": doc["residual"]}


def _check_verify(job: Job, doc: dict, oracles: dict) -> Dict[str, float]:
    summary = doc["summary"]
    if summary["violation"] is not None:
        raise CheckFailed(f"certification violation: {summary['violation']}")
    if summary["profiles"] != doc["config"]["corpus_size"]:
        raise CheckFailed(f"{summary['profiles']} profiles reported")
    defect = max(summary["max_grad_defect"], summary["max_hardy_defect"])
    if not math.isfinite(defect):
        raise CheckFailed(f"identity defect {defect!r}")
    if job.params["potential"] == "zero":
        if defect > ZERO_DEFECT_TOL:
            raise CheckFailed(f"zero-potential identity defect {defect:.3e} above rounding level")
        return {}
    return {"defect": defect}


def _check_sweep(job: Job, doc: dict, oracles: dict) -> Dict[str, float]:
    rows = doc["rows"]
    if len(rows) != job.params["rows"]:
        raise CheckFailed(f"{len(rows)} sweep rows, expected {job.params['rows']}")
    values = [v for row in rows for k, v in row.items() if k.startswith("value")]
    if not all(math.isfinite(v) and v > 0.0 for v in values):
        raise CheckFailed("sweep value not finite and positive")
    return {}


def _check_rearrange(job: Job, doc: dict, oracles: dict) -> Dict[str, float]:
    before, after = doc["ln_hyperbolic_before"], doc["ln_hyperbolic_after"]
    if not abs(after - before) <= REARRANGE_NORM_TOL * abs(before):
        raise CheckFailed(f"hyperbolic L^n norm {before!r} -> {after!r} under rearrangement")
    if not np.all(np.diff(np.asarray(doc["u_star"], dtype=float)) <= 0.0):
        raise CheckFailed("rearranged profile is not non-increasing")
    return {}


def _search_profile(doc: dict) -> Tuple[RadialProfile, int, float]:
    cfg = doc["config"]
    grid = make_grid(int(cfg["grid_points"]), float(cfg["epsilon"]))
    values = np.asarray(doc["search"]["profile_values"], dtype=float)
    if not np.all(np.diff(values) <= 0.0):
        raise CheckFailed("search profile is not non-increasing")
    profile = RadialProfile(grid, values, enforce_zero_boundary=False)
    return profile, int(cfg["n"]), float(cfg["beta"])


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RECOMPUTE_TOL * max(abs(a), abs(b))


def _check_search_mt(job: Job, doc: dict, oracles: dict) -> Dict[str, float]:
    rep = doc["search"]
    prof, n, beta = _search_profile(doc)
    h_val = h_functional(prof, n)
    if not abs(h_val - 1.0) <= rep["constraint_residual"] + RECOMPUTE_TOL:
        raise CheckFailed(f"H = {h_val!r}, outside the constraint residual "
                          f"{rep['constraint_residual']!r}")
    mt = singular_mt(prof, n, beta).value
    if not _close(mt, rep["best_value"]):
        raise CheckFailed(f"singular_mt {mt!r} != best_value {rep['best_value']!r}")
    return {"mt_best": mt}


def _check_search_lambda1(job: Job, doc: dict, oracles: dict) -> Dict[str, float]:
    rep = doc["search"]
    prof, n, _ = _search_profile(doc)
    norm = ln_norm_pow(prof, n)
    if not abs(norm - 1.0) <= rep["constraint_residual"] + RECOMPUTE_TOL:
        raise CheckFailed(f"||u||_n^n = {norm!r}, outside the constraint residual")
    ratio = h_functional(prof, n) / norm
    if not (ratio > 0.0 and _close(ratio, rep["best_value"])):
        raise CheckFailed(f"H/||u||_n^n {ratio!r} != best_value {rep['best_value']!r}")
    return {"lambda1_upper": ratio}


_CHECKS = {
    "green": _check_green,
    "verify": _check_verify,
    "sweep": _check_sweep,
    "rearrange": _check_rearrange,
    "search_mt": _check_search_mt,
    "search_lambda1": _check_search_lambda1,
}
