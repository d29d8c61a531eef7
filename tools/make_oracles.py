#!/usr/bin/env python3
"""Regenerate the frozen reference values used by the test suite.

Run from the repository root:

    python tools/make_oracles.py

Writes tests/data/oracles.json.  The references are deliberately more
expensive than anything the tests run: pole constants from one
100k-node solve per truncation level of the schedule, extrapolated along
the logarithmic tail, and hyperbolic volumes from an independent
composite-Simpson rule with two million uniform intervals.  Tests
compare production-resolution results against these frozen numbers;
regenerate only when the underlying definitions change, and commit the
diff.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hmtlab import (  # noqa: E402
    Potential,
    extrapolate_c_g,
    make_constants,
    make_grid,
    solve_green,
)

ORACLE_PATH = Path(__file__).resolve().parents[1] / "tests" / "data" / "oracles.json"

EPS_SCHEDULE = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
EXTRAP_EPS = [1e-3, 1e-4, 1e-5]
FINE_NODES = 100_000


def c_g_oracles() -> dict:
    out = {}
    for n in (2, 3, 4):
        t0 = time.time()
        per_eps = {
            f"{eps:.0e}": solve_green(
                n, Potential.hardy_critical(), make_grid(FINE_NODES, eps), tol=1e-10
            ).c_g
            for eps in EPS_SCHEDULE
        }
        fit = extrapolate_c_g(EXTRAP_EPS, [per_eps[f"{e:.0e}"] for e in EXTRAP_EPS])
        out[str(n)] = {"per_eps": per_eps, "extrapolated": fit}
        print(f"  n={n}: {per_eps}  limit={fit['limit']:.6f}  ({time.time()-t0:.1f}s)")
    return out


def simpson_reference(f, a: float, b: float, n_half: int) -> float:
    """Composite Simpson with 2*n_half intervals; independent of the package rules."""
    x = np.linspace(a, b, 2 * n_half + 1)
    y = f(x)
    h = (b - a) / (2 * n_half)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def hyperbolic_volume_oracles() -> dict:
    out = {}
    for n, r in ((2, 0.5), (3, 0.5), (3, 0.25), (4, 0.5)):
        c = make_constants(n)
        val = c.omega * simpson_reference(
            lambda s: (2.0 / (1.0 - s**2)) ** n * s ** (n - 1), 0.0, r, 1_000_000
        )
        out[f"n{n}_r{r}"] = val
        print(f"  hyperbolic volume n={n} r={r}: {val:.12f}")
    return out


def main() -> None:
    ORACLE_PATH.parent.mkdir(parents=True, exist_ok=True)
    print("pole constants (100k nodes, truncation schedule):")
    doc = {
        "fine_nodes": FINE_NODES,
        "eps_schedule": EPS_SCHEDULE,
        "c_g_hardy": c_g_oracles(),
        "hyperbolic_volume": hyperbolic_volume_oracles(),
    }
    ORACLE_PATH.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {ORACLE_PATH}")


if __name__ == "__main__":
    main()
