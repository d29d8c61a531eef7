"""Tests of the benchmark itself: output checks, trace counts, self-time arithmetic.

    python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.load_program(run.ROOT)

import hmtlab.cli  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed, Job, check_output  # noqa: E402

ORACLES = workloads.load_oracles(run.ROOT)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert hmtlab.cli.main(list(argv)) == 0
    return out.getvalue()


def _tampered(text, edit):
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


def test_job_lists_follow_the_seed_and_cover_every_subcommand():
    for name in workloads.WORKLOADS:
        assert workloads.make_jobs(name, 7) == workloads.make_jobs(name, 7)
    assert workloads.make_jobs("certify", 7) != workloads.make_jobs("certify", 8)
    sizes = {name: len(workloads.make_jobs(name, 1)) for name in workloads.WORKLOADS}
    assert sizes == {"green_fine": 9, "certify": 18, "search": 2}
    commands = {job.argv[0] for name in workloads.WORKLOADS for job in workloads.make_jobs(name, 1)}
    assert commands == {"green", "verify", "sweep", "search", "rearrange-demo"}


def test_green_check_rejects_shifted_c_g_and_non_decreasing_g():
    job = next(j for j in workloads.make_jobs("green_fine", 1)
               if j.params == {"n": 2, "epsilon": 1e-4})
    text = _run(job.argv)
    assert check_output(job, text, ORACLES)["c_g_err"] <= 1e-12

    def shift(doc):
        doc["c_g"] += 1e-6

    def flatten(doc):
        doc["G"][5] = doc["G"][4]

    for edit in (shift, flatten):
        with pytest.raises(CheckFailed):
            check_output(job, _tampered(text, edit), ORACLES)


def test_search_checks_reject_off_constraint_profiles():
    mt = Job("search_mt", ("search", "--mode", "mt", "--grid-points", "512", "--max-iter", "3"))
    text = _run(mt.argv)
    values = check_output(mt, text, ORACLES)
    assert values["mt_best"] == json.loads(text)["search"]["best_value"]

    def h_13(doc):  # H is n-homogeneous: this makes H = 1.3
        n = doc["config"]["n"]
        values = doc["search"]["profile_values"]
        doc["search"]["profile_values"] = [v * 1.3 ** (1 / n) for v in values]

    def inflate(doc):
        doc["search"]["best_value"] *= 1.0 + 1e-9

    def bump(doc):
        doc["search"]["profile_values"][10] = 2 * doc["search"]["profile_values"][9]

    for edit in (h_13, inflate, bump):
        with pytest.raises(CheckFailed):
            check_output(mt, _tampered(text, edit), ORACLES)

    lam = Job("search_lambda1", ("search", "--mode", "lambda1", "--grid-points", "512",
                                 "--max-iter", "2"))
    text = _run(lam.argv)
    assert check_output(lam, text, ORACLES)["lambda1_upper"] > 0.0

    def deflate(doc):
        doc["search"]["best_value"] *= 0.99

    for edit in (h_13, deflate):
        with pytest.raises(CheckFailed):
            check_output(lam, _tampered(text, edit), ORACLES)


def test_certify_checks():
    verify = Job("verify", ("verify", "--potential", "zero", "--grid-points", "1024",
                            "--t-points", "2048", "--corpus-size", "6"), {"potential": "zero"})
    text = _run(verify.argv)
    assert check_output(verify, text, ORACLES) == {}

    def defect(doc):
        doc["summary"]["max_grad_defect"] = 1e-10

    with pytest.raises(CheckFailed):
        check_output(verify, _tampered(text, defect), ORACLES)

    hardy = Job("verify", verify.argv[:2] + ("hardy",) + verify.argv[3:], {"potential": "hardy"})
    assert check_output(hardy, _run(hardy.argv), ORACLES)["defect"] > 0.0

    demo = Job("rearrange", ("rearrange-demo", "--n", "3", "--seed", "5"))
    text = _run(demo.argv)
    assert check_output(demo, text, ORACLES) == {}

    def norm(doc):
        doc["ln_hyperbolic_after"] *= 1.01

    with pytest.raises(CheckFailed):
        check_output(demo, _tampered(text, norm), ORACLES)


SMALL_JOBS = [
    Job("green", ("green", "--epsilon", "1e-4", "--grid-points", "100000", "--tol", "1e-10"),
        {"n": 2, "epsilon": 1e-4}),
    Job("verify", ("verify", "--potential", "hardy", "--grid-points", "1024", "--t-points", "2048",
                   "--corpus-size", "4", "--seed", "3"), {"potential": "hardy"}),
    Job("sweep", ("sweep", "--mode", "divergence", "--k-max", "4"), {"rows": 4}),
    Job("rearrange", ("rearrange-demo", "--seed", "9")),
    Job("search_mt", ("search", "--mode", "mt", "--grid-points", "512", "--max-iter", "4")),
    Job("search_lambda1",
        ("search", "--mode", "lambda1", "--grid-points", "512", "--max-iter", "2")),
]


def _traced_pass(jobs):
    tracer = spans.Tracer()
    result = run.Runs()
    for job_id, job in enumerate(jobs):
        run.run_job(job_id, job, ORACLES, result, tracer)
    assert result.failed == 0
    return spans.layer_metrics(tracer.arrays(), tracer.counters)


def test_traced_counts_repeat_exactly_and_tracing_is_removed():
    original = hmtlab.cli.main
    first, second = _traced_pass(SMALL_JOBS), _traced_pass(SMALL_JOBS)
    assert hmtlab.cli.main is original
    assert hmtlab.functionals.PchipInterpolator is PchipInterpolator
    counts = [k for k in first if k.endswith((".calls", ".builds", ".iters", ".elems", "_bytes"))]
    assert {"green.iters", "extremal.pav.elems", "extremal.mt.iters",
            "extremal.lambda1.iters"} <= set(counts)
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    for key in counts:
        assert first[key] > 0, key
    assert 0.0 < first["extremal.mt.accept_ratio"] <= 1.0
    for layer in spans.LAYERS:
        assert first[f"{layer}.self_s"] > 0.0


def test_self_times_on_a_synthetic_span_tree():
    # 0: cli.main [0, 10] with children 1 [1, 4] and 2 [5, 9]; 3 [6, 7] under 2
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 7.0])
    parent = np.array([-1, 0, 0, 2])
    np.testing.assert_allclose(spans.self_times(start, end, parent), [3.0, 3.0, 3.0, 1.0])
    assert spans.within(np.array([False, False, True, False]), parent).tolist() == [
        False, False, False, True]

    names = np.array(["cli.main", "green.solve_green", "extremal.maximize_mt",
                      "functionals.singular_mt"])
    tree = {"names": names, "name_id": np.arange(4, dtype=np.int32), "start": start, "end": end,
            "parent": parent, "job": np.zeros(4, dtype=np.int32)}
    counters = dict.fromkeys(spans.COUNTERS, 0)
    counters["extremal.mt.accepted"] = 1
    metrics = spans.layer_metrics(tree, counters)
    assert metrics["cli.self_s"] == 3.0
    assert metrics["green.self_s"] == 3.0
    assert metrics["extremal.self_s"] == 3.0
    assert metrics["functionals.self_s"] == 1.0
    assert metrics["green.solve_s"] == 3.0
    assert metrics["extremal.mt_s"] == 4.0
    assert metrics["extremal.mt.accept_ratio"] == 1.0
    assert sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS) == 10.0


def test_result_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    demo = [Job("rearrange", ("rearrange-demo", "--seed", "9"))]
    attempted, failed, metrics = run.end_to_end(demo, ORACLES, 0.0, [1.0])
    assert (attempted, failed) == (1, 0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: m["unit"] for name, m in metrics.items()}
    assert all(m["value"] > 0.0 for m in metrics.values())

    empty = {"names": np.array([], dtype=str), "name_id": np.zeros(0, dtype=np.int32),
             "start": np.zeros(0), "end": np.zeros(0), "parent": np.zeros(0, dtype=np.int64),
             "job": np.zeros(0, dtype=np.int32)}
    layer_names = list(spans.layer_metrics(empty, dict.fromkeys(spans.COUNTERS, 0)))
    layer_names.append("trace.overhead_s")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: spans.unit_of(name) for name in layer_names}
