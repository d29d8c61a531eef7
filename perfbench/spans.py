"""Span tracing for the traced benchmark run, from outside the program.

``Tracer.install()`` replaces every module attribute in ``hmtlab`` that is
bound to a traced function (or to ``PchipInterpolator``) with a wrapper that
records a span: name, start, end, parent span and job id.  Callers look those
names up at call time, so the spans nest as the calls do.  ``uninstall()``
puts the originals back.  Spans stay in memory until ``save()``; the
benchmark writes them when it ends.

Span names are ``<layer>.<function>``; the layer is one of the six hmtlab
modules.  PCHIP construction counts as ``functionals.pchip`` wherever it is
called (``RadialProfile.interpolator``, ``green.make_maps``, ``extremal``).
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

LAYERS = ("cli", "green", "transplant", "extremal", "functionals", "quad_core")


def _pav_elems(args, result, counters):
    counters["extremal.pav.elems"] += len(args[0])


def _green_iters(args, result, counters):
    counters["green.iters"] += result.iterations
    counters["green.node_iters"] += result.iterations * result.grid.n_points


def _mt_iters(args, result, counters):
    counters["extremal.mt.iters"] += result.iterations
    # the first trajectory entry is the start profile; every later one is an accepted move
    counters["extremal.mt.accepted"] += len(result.trajectory) - 1


def _lambda1_iters(args, result, counters):
    counters["extremal.lambda1.iters"] += result.iterations


# (module, attribute, span name, observer of (args, result, counters))
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("hmtlab.cli", "main", "cli.main", None),
    ("hmtlab.green", "solve_green", "green.solve_green", _green_iters),
    ("hmtlab.green", "make_maps", "green.make_maps", None),
    ("hmtlab.green", "image_t_grid", "green.image_t_grid", None),
    ("hmtlab.green", "check_boundary_bound", "green.check_boundary_bound", None),
    ("hmtlab.transplant", "transplant_report", "transplant.transplant_report", None),
    ("hmtlab.transplant", "pushforward", "transplant.pushforward", None),
    ("hmtlab.transplant", "check_mt_comparison", "transplant.check_mt_comparison", None),
    ("hmtlab.extremal", "seeded_corpus", "extremal.seeded_corpus", None),
    ("hmtlab.extremal", "bump_corpus", "extremal.bump_corpus", None),
    ("hmtlab.extremal", "boundedness_sweep", "extremal.boundedness_sweep", None),
    ("hmtlab.extremal", "divergence_probe", "extremal.divergence_probe", None),
    ("hmtlab.extremal", "improved_sweep", "extremal.improved_sweep", None),
    ("hmtlab.extremal", "maximize_mt", "extremal.maximize_mt", _mt_iters),
    ("hmtlab.extremal", "estimate_lambda1", "extremal.estimate_lambda1", _lambda1_iters),
    ("hmtlab.extremal", "pav_nonincreasing", "extremal.pav_nonincreasing", _pav_elems),
    ("hmtlab.extremal", "normalize_h", "extremal.normalize_h", None),
    ("hmtlab.functionals", "PchipInterpolator", "functionals.pchip", None),
    ("hmtlab.functionals", "h_functional", "functionals.h_functional", None),
    ("hmtlab.functionals", "grad_energy", "functionals.grad_energy", None),
    ("hmtlab.functionals", "hardy_term", "functionals.hardy_term", None),
    ("hmtlab.functionals", "ln_norm_pow", "functionals.ln_norm_pow", None),
    ("hmtlab.functionals", "singular_mt", "functionals.singular_mt", None),
    ("hmtlab.functionals", "hyperbolic_mt", "functionals.hyperbolic_mt", None),
    ("hmtlab.functionals", "rearrange", "functionals.rearrange", None),
    ("hmtlab.quad_core", "integrate", "quad_core.integrate", None),
    ("hmtlab.quad_core", "make_grid", "quad_core.make_grid", None),
    ("hmtlab.quad_core", "truncated_exp", "quad_core.truncated_exp", None),
    ("hmtlab.quad_core", "cumulative_from_origin", "quad_core.cumulative_from_origin", None),
)

COUNTERS = ("green.iters", "green.node_iters", "extremal.pav.elems", "extremal.mt.iters",
            "extremal.mt.accepted", "extremal.lambda1.iters", "cli.out_bytes")


class Tracer:
    """Records spans and counters of the calls made while it is installed.

    Construct it while no other tracer is installed: it wraps whatever the
    module names are bound to at that moment.
    """

    def __init__(self):
        self.names: List[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("i")
        self.counters: Dict[str, int] = {name: 0 for name in COUNTERS}
        self.job_id = -1
        self._stack: List[int] = []
        self._bindings: List[Tuple[object, str, object, object]] = []
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "hmtlab" or key.startswith("hmtlab."))]
        for mod_name, attr, span, observe in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(original, span, observe)
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is original:
                        self._bindings.append((mod, key, original, wrapper))

    def _wrap(self, fn: Callable, name: str, observe: Optional[Callable]) -> Callable:
        self.names.append(name)
        nid = len(self.names) - 1
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.job.append(self.job_id)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if observe is not None:
                observe(args, result, self.counters)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every hmtlab module name that refers to a traced object to its wrapper."""
        for mod, key, _, wrapper in self._bindings:
            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original, _ in self._bindings:
            setattr(mod, key, original)

    def arrays(self) -> Dict[str, np.ndarray]:
        """The spans as parallel arrays; ``names[name_id[i]]`` is span i's name."""
        return {
            "names": np.asarray(self.names, dtype=str),
            "name_id": np.array(self.name_id),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent),
            "job": np.array(self.job),
        }

    def save(self, path: Path) -> None:
        """Write the spans as a compressed npz of parallel arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, **self.arrays())


def unit_of(metric: str) -> str:
    if metric.endswith(("calls", "builds", "iters", "elems")):
        return "count"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_ratio"):
        return "ratio"
    return "s"


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and nest properly, so the children of a span
    cover disjoint parts of its interval.
    """
    dur = end - start
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def within(is_ancestor: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Mask of the spans that have a span marked in ``is_ancestor`` above them.

    A parent is always recorded before its children, so one forward pass suffices.
    """
    inside = np.zeros(parent.size, dtype=bool)
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            inside[i] = inside[p] or is_ancestor[p]
    return inside


def layer_metrics(spans: Dict[str, np.ndarray], counters: Dict[str, int]) -> Dict[str, float]:
    """The per-layer metrics of one traced pass."""
    table, name_id, parent = list(spans["names"]), spans["name_id"], spans["parent"]
    dur = spans["end"] - spans["start"]
    self_s = self_times(spans["start"], spans["end"], parent)

    def named(*span_names: str) -> np.ndarray:
        return np.isin(name_id, [i for i, n in enumerate(table) if n in span_names])

    def calls(*span_names: str) -> int:
        return int(named(*span_names).sum())

    def total(*span_names: str) -> float:
        return float(dur[named(*span_names)].sum())

    mt_singular = int((named("functionals.singular_mt")
                       & within(named("extremal.maximize_mt"), parent)).sum())
    out: Dict[str, float] = {
        "green.solve.calls": calls("green.solve_green"),
        "green.solve_s": total("green.solve_green"),
        "green.iters": counters["green.iters"],
        "green.node_iters": counters["green.node_iters"],
        "green.maps_s": total("green.make_maps"),
        "cli.out_bytes": counters["cli.out_bytes"],
        "transplant.report.calls": calls("transplant.transplant_report"),
        "transplant.report_s": total("transplant.transplant_report"),
        "transplant.pushforward_s": total("transplant.pushforward"),
        "transplant.mt_comparison_s": total("transplant.check_mt_comparison"),
        "extremal.corpus_s": total("extremal.seeded_corpus", "extremal.bump_corpus"),
        "extremal.sweep_s": total("extremal.boundedness_sweep", "extremal.divergence_probe",
                                  "extremal.improved_sweep"),
        "extremal.pav.calls": calls("extremal.pav_nonincreasing"),
        "extremal.pav.elems": counters["extremal.pav.elems"],
        "extremal.pav_s": total("extremal.pav_nonincreasing"),
        "extremal.mt_s": total("extremal.maximize_mt"),
        "extremal.mt.iters": counters["extremal.mt.iters"],
        "extremal.mt.accept_ratio": (counters["extremal.mt.accepted"] / mt_singular
                                     if mt_singular else 0.0),
        "extremal.lambda1_s": total("extremal.estimate_lambda1"),
        "extremal.lambda1.iters": counters["extremal.lambda1.iters"],
        "functionals.pchip.builds": calls("functionals.pchip"),
        "functionals.pchip_s": total("functionals.pchip"),
        "functionals.h.calls": calls("functionals.h_functional"),
        "functionals.h_s": total("functionals.h_functional"),
        "functionals.grad_energy_s": total("functionals.grad_energy"),
        "functionals.singular_mt.calls": calls("functionals.singular_mt"),
        "functionals.singular_mt_s": total("functionals.singular_mt"),
        "functionals.hyperbolic_mt_s": total("functionals.hyperbolic_mt"),
        "functionals.rearrange_s": total("functionals.rearrange"),
        "quad_core.integrate.calls": calls("quad_core.integrate"),
        "quad_core.integrate_s": total("quad_core.integrate"),
        "quad_core.make_grid_s": total("quad_core.make_grid"),
        "quad_core.truncated_exp_s": total("quad_core.truncated_exp"),
    }
    for layer in LAYERS:
        in_layer = named(*[n for n in table if n.startswith(layer + ".")])
        out[f"{layer}.self_s"] = float(self_s[in_layer].sum())
    return out
