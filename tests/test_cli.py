import ctypes
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmtlab
from hmtlab import (
    FORMAT_VERSION,
    ConvergenceError,
    GreenTable,
    Potential,
    PotentialInstabilityError,
    estimate_lambda1,
    make_grid,
    solve_green,
)
from hmtlab import functionals
from hmtlab import cli
from hmtlab.cli import (
    ARRAY_CHUNK,
    CORPUS_BLOCK,
    _build_parser,
    _config_for_output,
    _emit_json,
    main,
)


def run_cli(args):
    return main(args)


def _scaled(doc, keys, factor):
    return {**doc, **{k: [factor * x for x in doc[k]] for k in keys}}


def _with_nan_in_g(doc):
    g = list(doc["G"])
    g[100] = float("nan")
    return {**doc, "G": g}


def _v1(doc):
    """The document with the derived arrays an hmtlab-report/1 table also stored."""
    table = GreenTable.from_json_dict(doc)
    return {**doc, "r": table.grid.nodes.tolist(), "Gprime": table.g_deriv.tolist(),
            "remainder": table.remainder.tolist()}


# each turns a genuine Green-table document into one verify must reject; the r_* cases
# and g_and_gprime_x1.3_c_g_5 tamper with v1 fields, and the v1 fields alone reject them
TAMPERED_TABLES = {
    "g_and_gprime_x1.3_c_g_5": lambda d: {**_scaled(_v1(d), ("G", "Gprime"), 1.3), "c_g": 5.0},
    "g_x1.3_c_g_5": lambda d: {**_scaled(d, ("G",), 1.3), "c_g": 5.0},
    "c_g_5": lambda d: {**d, "c_g": 5.0},
    "c_g_plus_1e-6": lambda d: {**d, "c_g": d["c_g"] + 1e-6},
    "g_perturbed_gprime_kept": lambda d: _scaled(d, ("G",), 1.0 + 1e-6),
    "r_scaled_1e-15": lambda d: _scaled(_v1(d), ("r",), 1.0 + 1e-15),
    # the grid is make_grid(len(G), epsilon); one ulp of epsilon rebuilds the same table
    # to rounding, and about 1e-7 relative moves the tail nodes beyond the residual bound
    "epsilon_scaled_1e-6": lambda d: {**d, "epsilon": d["epsilon"] * (1.0 + 1e-6)},
    "g_one_short": lambda d: {**d, "G": d["G"][:-1]},
    "nan_in_g": _with_nan_in_g,
    "missing_tol": lambda d: {k: v for k, v in d.items() if k != "tol"},
    "potential_not_a_string": lambda d: {**d, "potential": 5},
    "infinite_iterations": lambda d: {**d, "iterations": float("inf")},
    "top_level_list": lambda d: [d],
    "top_level_string": lambda d: "table",
    "r_null": lambda d: {**_v1(d), "r": None},
    "r_empty": lambda d: {**_v1(d), "r": []},
    "g_null": lambda d: {**d, "G": None},
    "g_empty": lambda d: {**d, "G": []},
    "potential_mass_overflows": lambda d: {**d, "potential": "hardy+lambda=1e308"},
}


_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-300])
_TEXT = st.text(max_size=8) | st.sampled_from(["a, b", "1.5, 2.5", "line\nbreak", "ünï, cødé\n"])
_SCALARS = st.none() | st.booleans() | st.integers() | _FLOATS | _TEXT
# json turns int, float, bool and None keys into strings
_KEYS = _TEXT | st.integers() | _FLOATS | st.booleans() | st.none()
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=12,
)
# the shapes reports nest: verify's list of flat report dicts, search's [step, value]
# trajectory, and dicts keyed by non-strings
_REPORT_SHAPES = (st.lists(st.dictionaries(_TEXT, _SCALARS, max_size=4), max_size=4)
                  | st.lists(st.tuples(st.integers(), _FLOATS).map(list), max_size=6)
                  | st.dictionaries(_KEYS, _VALUES, max_size=4))


class TestEmitJson:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        payload=st.dictionaries(
            _TEXT,
            st.lists(_FLOATS, max_size=6) | st.lists(st.integers(), max_size=4) | _VALUES
            | _REPORT_SHAPES,
            max_size=6,
        ),
        cfg=st.dictionaries(_TEXT, _SCALARS, max_size=4),
    )
    def test_matches_indented_dumps(self, payload, cfg):
        doc = {"format_version": FORMAT_VERSION, "config": _config_for_output(cfg), **payload}
        assert _emit_json(payload, cfg) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("length", [0, 1, 7, ARRAY_CHUNK - 1, ARRAY_CHUNK, ARRAY_CHUNK + 1,
                                        2 * ARRAY_CHUNK + 3])
    def test_float_arrays_match_their_lists(self, length):
        rng = np.random.default_rng(length)
        values = rng.standard_normal(length) * 10.0 ** rng.integers(-300, 300, size=length)
        special = [-0.0, 5e-324, 1e16, 1e-5, math.nan, math.inf, -math.inf]
        spots = np.arange(0, length, max(1, length // len(special)))[:len(special)]
        values[spots] = special[:spots.size]
        values.flags.writeable = False  # as the Green table's G
        payload = {"G": values, "nested": {"rows": [values[::-1], 1.5, {"x": values}]},
                   "empty": np.empty(0), "after": [values]}
        as_lists = {"G": values.tolist(),
                    "nested": {"rows": [values[::-1].tolist(), 1.5, {"x": values.tolist()}]},
                    "empty": [], "after": [values.tolist()]}
        cfg = {"n": 2, "out": None}
        doc = {"format_version": FORMAT_VERSION, "config": _config_for_output(cfg), **as_lists}
        assert _emit_json(payload, cfg) == json.dumps(doc, indent=2) + "\n"


def _dumps_text(values, sep):
    """The reference ``_array_text`` must match: the json encoder on the list."""
    return json.dumps(values.tolist(), separators=(sep, ": "))[1:-1]


_SEPS = st.sampled_from([",\n  ", ",\n    ", ",\n" + " " * 12])
_TINY = np.finfo(np.float64).tiny  # the smallest normal value


def _kernel_edges():
    """Values where the digits or the layout change: see test_kernel_edges."""
    powers = [2.0 ** e for e in range(-1022, 1024)] + [float(f"1e{e}") for e in range(-307, 309)]
    switches = [1e16, 9999999999999998.0, 1e15, 1e17, 0.0001, 9.999999999999999e-05, 0.001,
                1e-05, 0.1, 0.5, 1.0, 10.0, 100.0, 1234.5, 0.3, 1 / 3, 2 / 3, 4.35,
                123456789012345678.0, 9007199254740992.0, 9007199254740993.0, 2.0 ** 53 - 1]
    three_digit = [1e100, 9.99e99, 1.5e-100, 1e-99, 1.2345678901234567e-250, 7.5e299]
    ends = [np.finfo(np.float64).max, _TINY, 0.0]
    values = np.array(powers + switches + three_digit + ends)
    with np.errstate(over="ignore"):  # nextafter(max, inf) is inf, dropped below
        # the neighbours of 2**e: mantissa 2**52 has the half-width gap below it
        values = np.concatenate([values, np.nextafter(values, np.inf),
                                 np.nextafter(values, -np.inf)])
    values = values[np.isfinite(values) & ((values == 0.0) | (np.abs(values) >= _TINY))]
    return np.concatenate([values, -values])


class TestArrayText:
    """``_array_text`` writes exactly the text of ``json.dumps(values.tolist())``."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(values=st.lists(st.floats(width=64), max_size=40), sep=_SEPS)
    def test_matches_dumps_with_nan_inf_and_subnormals(self, values, sep):
        values = np.array(values, dtype=np.float64)
        if values.size:
            assert cli._array_text(values, sep) == _dumps_text(values, sep)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(values=st.lists(st.floats(width=64, allow_nan=False, allow_infinity=False,
                                     allow_subnormal=False), min_size=1, max_size=40),
           sep=_SEPS)
    def test_kernel_matches_dumps(self, values, sep):
        # zeros and normal values only: the kernel itself, not the json fallback
        values = np.array(values, dtype=np.float64)
        assert cli._float_text(values.view(np.uint64), sep) == _dumps_text(values, sep)

    def test_kernel_edges(self):
        values = _kernel_edges()
        assert values.size > 10000
        text = cli._float_text(values.view(np.uint64), ",\n  ")
        assert text.split(",\n  ") == [repr(v) for v in values.tolist()]

    def test_kernel_on_random_bit_patterns(self):
        bits = np.random.default_rng(2024).integers(0, 2**64, size=50000, dtype=np.uint64,
                                                    endpoint=False)
        values = bits.view(np.float64)
        values = values[np.isfinite(values) & (np.abs(values) >= _TINY)]
        assert cli._float_text(values.view(np.uint64), ", ") == _dumps_text(values, ", ")

    @pytest.mark.parametrize("special", [math.nan, math.inf, -math.inf, 5e-324, -_TINY / 3])
    def test_special_values_take_the_json_path(self, special):
        values = np.linspace(-1.0, 1.0, 9)
        values[4] = special
        assert cli._array_text(values, ",\n  ") == _dumps_text(values, ",\n  ")

    @pytest.mark.parametrize("view", ["reversed", "strided", "reversed_strided", "read_only"])
    def test_views(self, view):
        rng = np.random.default_rng(5)
        size = 2 * ARRAY_CHUNK + 7
        base = rng.standard_normal(size) * 10.0 ** rng.integers(-20, 20, size)
        values = {"reversed": base[::-1], "strided": base[1::3], "reversed_strided": base[-2::-2],
                  "read_only": base.copy()}[view]
        values.flags.writeable = view != "read_only"
        assert cli._array_text(values, ",\n    ") == _dumps_text(values, ",\n    ")
        cfg = {"n": 2, "out": None}
        doc = {"format_version": FORMAT_VERSION, "config": _config_for_output(cfg),
               "G": values.tolist()}
        assert _emit_json({"G": values}, cfg) == json.dumps(doc, indent=2) + "\n"

    def test_other_dtypes_write_their_lists(self):
        for values in (np.arange(-3, 5), np.linspace(0.0, 1.0, 7, dtype=np.float32),
                       np.linspace(0.0, 1.0, 7).astype(">f8")):
            assert cli._array_text(values, ", ") == _dumps_text(values, ", ")

    def test_import_builds_no_table(self):
        tables = ("_pow10_table", "_digit_quads", "_layouts")
        script = ("import json, sys, numpy as np, hmtlab, hmtlab.cli as cli\n"
                  f"sizes = lambda: [getattr(cli, t).cache_info().currsize for t in {tables}]\n"
                  "before = sizes(); cli._array_text(np.array([1.5]), ', ')\n"
                  "print(json.dumps([before, sizes()]))\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(hmtlab.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=300, check=True)
        assert json.loads(proc.stdout) == [[0, 0, 0], [1, 1, 1]]


# every JSON-writing path at a small grid; {table} is a Green table written first
REPORT_ARGVS = {
    "green": ["green", "--grid-points", "256"],
    "verify": ["verify", "--grid-points", "512", "--corpus-size", "3"],
    "verify_green_table": ["verify", "--green-table", "{table}"],
    "sweep_boundedness": ["sweep", "--mode", "boundedness", "--grid-points", "512",
                          "--k-max", "4"],
    "sweep_divergence": ["sweep", "--mode", "divergence", "--grid-points", "512", "--k-max", "4"],
    "sweep_improved": ["sweep", "--mode", "improved", "--lam", "1.0", "--grid-points", "512",
                       "--k-max", "4"],
    "search_mt": ["search", "--mode", "mt", "--grid-points", "512"],
    "search_lambda1": ["search", "--mode", "lambda1", "--grid-points", "512"],
    "rearrange_demo": ["rearrange-demo", "--grid-points", "256"],
}


@pytest.mark.parametrize("case", list(REPORT_ARGVS))
def test_report_is_its_indented_dumps(tmp_path, capsys, case):
    table = tmp_path / "g.json"
    if case == "verify_green_table":
        assert main(["green", "--grid-points", "512", "--epsilon", "1e-4",
                     "--out", str(table)]) == 0
    assert main([arg.format(table=table) for arg in REPORT_ARGVS[case]]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # each call in this process must match the same argv alone in a fresh interpreter
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "grid_points": 512, "corpus_size": 3, "seed": 4}))
    argvs = [["search", "--mode", "bogus"],
             ["search", "--mode", "mt", "--bogus-flag", "1"],
             ["verify", "--config", str(cfg)],
             ["verify", "--grid-points", "512", "--corpus-size", "2"],
             ["search", "--mode", "lambda1", "--grid-points", "512"]]
    in_process = []
    for argv in argvs:
        code = main(argv)
        captured = capsys.readouterr()
        in_process.append((captured.out, captured.err, code))
    src = str(Path(hmtlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    for argv, result in zip(argvs, in_process):
        proc = subprocess.run([sys.executable, "-m", "hmtlab.cli", *argv], capture_output=True,
                              text=True, env=env, timeout=300)
        assert (proc.stdout, proc.stderr, proc.returncode) == result, argv
    assert [code for _, _, code in in_process] == [1, 1, 0, 0, 0]
    assert _build_parser() is _build_parser()


# in a fresh interpreter: every mallopt call made by importing hmtlab and by two mains
_RECORD_MALLOPT = """
import ctypes, json
calls = []

class Recording(ctypes.CDLL):
    def __getattr__(self, name):
        if name == "mallopt":
            return lambda *args: calls.append(args) or 1
        return super().__getattr__(name)

ctypes.CDLL = Recording
import hmtlab, hmtlab.cli
after_import = list(calls)
for _ in range(2):
    hmtlab.cli.main(["search", "--mode", "bogus"])
print(json.dumps([after_import, calls]))
"""

# minor page faults of a second verify run in one process
_SECOND_RUN_FAULTS = """
import resource, sys
from hmtlab.cli import main
argv = ["verify", "--n", "3", "--grid-points", "4096", "--corpus-size", "200", "--out", sys.argv[1]]
assert main(argv) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert main(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _no_libc(name):
    raise OSError("no C library")


def _run_python(script, *args):
    src = str(Path(hmtlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestAllocatorPolicy:
    @pytest.fixture(autouse=True)
    def _fresh_policy(self):
        cli._hold_freed_memory.cache_clear()
        yield
        cli._hold_freed_memory.cache_clear()

    def test_set_by_the_first_main_only(self):
        after_import, calls = json.loads(_run_python(_RECORD_MALLOPT))
        assert after_import == []
        assert calls == [[cli._M_MMAP_THRESHOLD, cli._MMAP_THRESHOLD_BYTES],
                         [cli._M_TRIM_THRESHOLD, cli._TRIM_THRESHOLD_BYTES]]

    def test_refused_mmap_threshold_leaves_trim_unset(self, monkeypatch):
        calls = []

        class Refusing:
            def __init__(self, name):
                self.mallopt = lambda *args: calls.append(args) or 0

        monkeypatch.setattr(ctypes, "CDLL", Refusing)
        assert main(["search", "--mode", "bogus"]) == 1
        assert calls == [(cli._M_MMAP_THRESHOLD, cli._MMAP_THRESHOLD_BYTES)]

    @pytest.mark.parametrize("cdll", [_no_libc, lambda name: object()],
                             ids=["cdll_raises", "no_mallopt"])
    def test_without_mallopt_outputs_unchanged(self, monkeypatch, capsys, cdll):
        argv = ["green", "--grid-points", "256"]
        assert main(argv) == 0
        expected = capsys.readouterr()
        cli._hold_freed_memory.cache_clear()
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert main(argv) == 0
        assert capsys.readouterr() == expected

    @pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
                        reason="the policy is glibc's mallopt")
    def test_second_run_reuses_freed_memory(self, tmp_path):
        # under glibc's defaults the freed 0.5 MB block temporaries go back to the system,
        # and the second run faults them in again: about 12,000 minor faults on 2 cores
        assert int(_run_python(_SECOND_RUN_FAULTS, str(tmp_path / "v.json"))) < 500


class TestGreenCommand:
    def test_zero_potential(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code = run_cli(["green", "--n", "2", "--potential", "zero", "--grid-points", "512",
                        "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert abs(doc["c_g"]) < 1e-6
        assert doc["format_version"].startswith("hmtlab")
        assert doc["config"]["potential"] == "zero"

    def test_hardy_potential(self, tmp_path):
        out = tmp_path / "g.json"
        code = run_cli(["green", "--n", "3", "--potential", "hardy", "--grid-points", "512",
                        "--epsilon", "1e-4", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["residual"] <= doc["tol"]
        assert len(doc["G"]) == 512
        assert not {"r", "Gprime", "remainder"} & set(doc)

    def test_invalid_dimension(self, capsys):
        assert run_cli(["green", "--n", "1"]) == 1

    def test_invalid_beta(self):
        assert run_cli(["search", "--mode", "lambda1", "--n", "5", "--beta", "7"]) == 1

    def test_unknown_potential(self):
        assert run_cli(["green", "--potential", "banana"]) == 1

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol(self, tmp_path, capsys, tol):
        out = tmp_path / "g.json"
        assert run_cli(["green", "--grid-points", "64", "--tol", tol, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("hmtlab: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("potential", ["hardy+lambda=abc", "hardy+lambda=nan", "const=inf"])
    def test_bad_potential_parameter(self, capsys, potential):
        assert run_cli(["green", "--grid-points", "64", "--potential", potential]) == 1
        err = capsys.readouterr().err
        assert err.startswith("hmtlab: ") and err.count("\n") == 1

    @pytest.mark.parametrize("points, error", [("64", PotentialInstabilityError),
                                               ("96", PotentialInstabilityError)])
    def test_coarse_grid_named_when_the_solve_fails(self, tmp_path, capsys, points, error):
        # the default hardy potential at eps = 1e-6 needs about 128 nodes; on 96 the
        # discrete flux vanishes before the pole (Phi_0 = -2.3e-4), so no positive G exists
        out = tmp_path / "g.json"
        assert run_cli(["green", "--grid-points", points, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("hmtlab: ") and err.count("\n") == 1
        assert f"grid ({points} nodes)" in err and "refine --grid-points" in err
        assert not out.exists()
        with pytest.raises(error, match=f"grid \\({points} nodes\\)"):
            solve_green(2, Potential("hardy"), make_grid(int(points), 1e-6))

    @pytest.mark.parametrize("argv, start", [
        (["--n", "3", "--potential", "const=20"], "hmtlab: flux vanishes at r = "),
        (["--epsilon", "1e-12", "--grid-points", "16384", "--tol", "1e-12"],
         "hmtlab: flux residual ")])
    def test_failed_solve_is_one_line(self, tmp_path, capsys, argv, start):
        # no positive Green function, and a tol below the flux's rounding at eps = 1e-12
        # (the residual is 1.3e-10 there, so tol 1e-10 passes and 1e-12 cannot)
        out = tmp_path / "g.json"
        assert run_cli(["green", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(start) and err.count("\n") == 1
        assert err.rstrip().endswith("refine --grid-points to rule out the grid")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [["--potential", "hardy+lambda=1e308"], ["--n", "100"]])
    def test_overflowing_potential_is_a_numerical_failure(self, tmp_path, capsys, argv):
        out = tmp_path / "g.json"
        assert run_cli(["green", "--grid-points", "256", *argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("hmtlab: potential mass overflows float64")
        assert captured.err.count("\n") == 1

    def test_epsilon_below_the_grids_resolution_is_a_config_error(self, tmp_path, capsys):
        # the boundary tail's radii round together near 1 - eps; this exited 0 with c_g 0.156
        out = tmp_path / "g.json"
        assert run_cli(["green", "--epsilon", "1e-16", "--grid-points", "2048",
                        "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("hmtlab: ") and err.count("\n") == 1
        assert "epsilon=1e-16" in err and "n_points=2048" in err
        assert not out.exists()

    def test_echoes_only_its_own_config_keys(self, tmp_path):
        out = tmp_path / "g.json"
        assert run_cli(["green", "--n", "2", "--potential", "zero", "--grid-points", "256",
                        "--epsilon", "1e-3", "--out", str(out)]) == 0
        assert sorted(json.loads(out.read_text())["config"]) == [
            "command", "epsilon", "grid_points", "n", "potential", "tol"]


# each subcommand's cheap passing argv and the config keys its report echoes: the keys
# of the flags it reads (--out aside) plus "command"
ECHOED = {
    "green": (["--potential", "zero", "--grid-points", "256", "--epsilon", "1e-3"],
              "command epsilon grid_points n potential tol"),
    "verify": (["--grid-points", "256", "--epsilon", "1e-3", "--corpus-size", "2"],
               "beta command corpus_size epsilon green_table grid_points margin_tol n "
               "potential seed tol"),
    "sweep": (["--mode", "boundedness", "--grid-points", "256", "--k-max", "2"],
              "beta command epsilon format grid_points k_max k_min lam mode n scale"),
    "search": (["--mode", "lambda1", "--grid-points", "512", "--max-iter", "3"],
               "beta command epsilon format grid_points max_iter mode n"),
    "rearrange-demo": (["--grid-points", "64"],
                       "beta command epsilon format grid_points n seed"),
}


# green's echo is TestGreenCommand::test_echoes_only_its_own_config_keys
@pytest.mark.parametrize("command", [c for c in ECHOED if c != "green"])
def test_config_echo_holds_the_keys_it_reads(tmp_path, command):
    argv, keys = ECHOED[command]
    out = tmp_path / "o.json"
    assert run_cli([command, *argv, "--out", str(out)]) == 0
    assert sorted(json.loads(out.read_text())["config"]) == keys.split()


@pytest.mark.parametrize("command", list(ECHOED))
def test_parser_holds_only_the_flags_it_reads(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    flags = set(re.findall(r"--([a-z0-9-]+)", capsys.readouterr().out))
    expected = {key.replace("_", "-") for key in ECHOED[command][1].split()} - {"command"}
    # retired flags are parsed and ignored: criterion 11's argv passes verify --t-points,
    # and the benchmark's search argvs pass --seed
    expected |= {"help", "config", "out"} | {"verify": {"t-points"}, "search": {"seed"}}.get(
        command, set())
    assert flags == expected


@pytest.mark.parametrize("command, key", [("verify", "t_points"), ("search", "seed")])
def test_retired_flag_ignored_and_its_config_key_rejected(tmp_path, capsys, command, key):
    argv = [command, *ECHOED[command][0]]
    out, plain = tmp_path / "o.json", tmp_path / "p.json"
    assert run_cli(argv + ["--" + key.replace("_", "-"), "7", "--out", str(out)]) == 0
    assert run_cli(argv + ["--out", str(plain)]) == 0
    assert out.read_bytes() == plain.read_bytes()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 7}))
    capsys.readouterr()
    assert run_cli(argv + ["--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"hmtlab: unknown config keys for {command}: ['{key}']\n"


# flags that every subcommand used to accept though only the config echo read them
REMOVED_FLAGS = [
    ["green", "--beta", "1"],
    ["green", "--seed", "3"],
    ["green", "--format", "csv"],
    ["verify", "--format", "csv"],
    ["sweep", "--mode", "boundedness", "--potential", "zero"],
    ["sweep", "--mode", "boundedness", "--tol", "1e-9"],
    ["sweep", "--mode", "boundedness", "--seed", "3"],
    ["search", "--mode", "lambda1", "--potential", "zero"],
    ["search", "--mode", "lambda1", "--tol", "1e-9"],
    ["rearrange-demo", "--potential", "zero"],
    ["rearrange-demo", "--tol", "1e-9"],
]


@pytest.mark.parametrize("argv", REMOVED_FLAGS, ids=lambda a: f"{a[0]}{a[-2]}")
def test_flag_the_subcommand_does_not_read_rejected(tmp_path, capsys, argv):
    out = tmp_path / "o.json"
    assert run_cli(argv + ["--grid-points", "64", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("hmtlab: unrecognized arguments: " + argv[-2])
    assert captured.err.count("\n") == 1
    assert not out.exists()


# each is out of range for one numeric flag; validation must reject it before any work
OUT_OF_RANGE = {
    "max_iter_negative_mt": ["search", "--mode", "mt", "--max-iter", "-3"],
    "max_iter_zero_lambda1": ["search", "--mode", "lambda1", "--max-iter", "0"],
    "corpus_size_zero": ["verify", "--corpus-size", "0"],
    "margin_tol_nan": ["verify", "--n", "2", "--potential", "const=0.5", "--corpus-size", "30",
                       "--seed", "7", "--margin-tol", "nan"],
    "margin_tol_inf": ["verify", "--corpus-size", "2", "--margin-tol", "inf"],
    "margin_tol_negative": ["verify", "--corpus-size", "2", "--margin-tol", "-1"],
    "seed_negative_verify": ["verify", "--seed", "-5", "--corpus-size", "2"],
    "seed_negative_rearrange": ["rearrange-demo", "--seed", "-1"],
    "k_min_above_k_max": ["sweep", "--mode", "boundedness", "--k-min", "5", "--k-max", "2"],
    "k_min_above_k_max_divergence": ["sweep", "--mode", "divergence", "--k-min", "5",
                                     "--k-max", "2"],
    # the improved sweep estimates lambda_1 itself, so --lambda1 is no flag of sweep
    "removed_lambda1_nan": ["sweep", "--mode", "improved", "--lam", "1.0", "--lambda1", "nan"],
    "removed_lambda1_inf": ["sweep", "--mode", "improved", "--lam", "2.3", "--lambda1", "inf"],
    "scale_inf": ["sweep", "--mode", "boundedness", "--scale", "inf"],
    # rho = 2^-k drops below the first node (1e-10) from k = 34 on
    "moser_corner_below_grid": ["sweep", "--mode", "boundedness", "--k-min", "30",
                                "--k-max", "40"],
}


@pytest.mark.filterwarnings("error::RuntimeWarning")  # rejected before any arithmetic
@pytest.mark.parametrize("case", list(OUT_OF_RANGE))
def test_out_of_range_flag_rejected(tmp_path, capsys, case):
    out = tmp_path / "o.json"
    assert run_cli(OUT_OF_RANGE[case] + ["--grid-points", "512", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("hmtlab: ") and captured.err.count("\n") == 1
    assert not out.exists()


def test_unwritable_out_rejected(tmp_path, capsys):
    out = tmp_path / "missing" / "o.json"
    assert run_cli(["rearrange-demo", "--grid-points", "64", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("hmtlab: cannot write ") and captured.err.count("\n") == 1
    assert not out.exists()


def test_moser_corner_on_first_node_rejected(tmp_path, capsys):
    # at 256 nodes rho = 2^-33 (1.16e-10) lies above the first node (1e-10) but is
    # nearest to it; moving the corner to node 1 would report a rho the row never used
    out = tmp_path / "o.json"
    assert run_cli(["sweep", "--mode", "boundedness", "--grid-points", "256", "--k-min", "33",
                    "--k-max", "33", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("hmtlab: ") and "first grid node" in captured.err
    assert not out.exists()


class TestVerifyCommand:
    def test_default_corpus_passes(self, tmp_path):
        out = tmp_path / "v.json"
        code = run_cli(["verify", "--n", "2", "--grid-points", "1024", "--t-points", "2048",
                        "--corpus-size", "6", "--seed", "42", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["violation"] is None
        assert doc["summary"]["profiles"] == 6

    def test_nonzero_potential_margins_on_image_grid(self, tmp_path):
        # on an interpolated t-grid this corpus showed a key margin of -4.1e-3
        out = tmp_path / "v.json"
        assert run_cli(["verify", "--n", "4", "--potential", "const=0.5", "--grid-points", "512",
                        "--corpus-size", "30", "--seed", "7", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["summary"]["min_key_margin"] > 0.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_fits_per_job(self, tmp_path, monkeypatch, n):
        # each profile's PCHIP fit is made once and carried through its rescales, and the
        # image grid needs no evaluation of it; refitting and evaluating made 736 and 270.
        # Every fit and evaluation, make_maps' included, runs through functionals.pchip.
        # A block of CORPUS_BLOCK profiles takes three fits (its Moser rows, its other rows,
        # their pushforwards): 13 blocks * 3 + 67 spline members' control points + make_maps'
        # 2 (a(t), then phi and ln(1 - a^2) as one stack) = 108, where one fit per profile
        # and per pushforward made 470.
        counts = {"pchip_slopes": 0, "hermite_eval": 0}
        for name in counts:
            original = getattr(functionals, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(functionals, name, counted)
        assert run_cli(["verify", "--n", str(n), "--grid-points", "4096", "--corpus-size", "200",
                        "--seed", "5", "--out", str(tmp_path / "v.json")]) == 0
        assert counts["pchip_slopes"] <= 108
        assert counts["hermite_eval"] <= 69

    def test_reports_do_not_depend_on_the_block_layout(self, tmp_path):
        def reports(size):
            out = tmp_path / f"v{size}.json"
            assert run_cli(["verify", "--n", "3", "--grid-points", "1024", "--corpus-size",
                            str(size), "--seed", "11", "--out", str(out)]) == 0
            return [json.dumps(rep, indent=2) for rep in json.loads(out.read_text())["reports"]]

        full = reports(200)
        for size in (1, CORPUS_BLOCK - 1, CORPUS_BLOCK, CORPUS_BLOCK + 1):
            assert reports(size) == full[:size]

    def test_zero_potential_identity(self, tmp_path):
        out = tmp_path / "v0.json"
        code = run_cli(["verify", "--n", "2", "--potential", "zero", "--grid-points", "1024",
                        "--corpus-size", "4", "--epsilon", "1e-9", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["max_grad_defect"] < 1e-8
        assert doc["summary"]["max_hardy_defect"] < 1e-8

    def test_corrupted_green_table(self, tmp_path):
        good = tmp_path / "good.json"
        assert run_cli(["green", "--n", "2", "--potential", "hardy", "--grid-points", "512",
                        "--epsilon", "1e-4", "--out", str(good)]) == 0
        doc = json.loads(good.read_text())
        doc["G"][10] = doc["G"][5] + 1.0  # break monotonicity
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(["verify", "--green-table", str(bad)]) == 2

    def test_unparseable_potential_in_green_table(self, tmp_path):
        good = tmp_path / "good.json"
        assert run_cli(["green", "--n", "2", "--potential", "hardy", "--grid-points", "512",
                        "--epsilon", "1e-4", "--out", str(good)]) == 0
        doc = json.loads(good.read_text())
        for potential in ("bogus", "hardy+lambda=abc", "const=nan"):
            doc["potential"] = potential
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            assert run_cli(["verify", "--green-table", str(bad)]) == 2

    @pytest.fixture(scope="class")
    def genuine_table(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("green") / "good.json"
        assert run_cli(["green", "--n", "2", "--potential", "hardy", "--grid-points", "512",
                        "--epsilon", "1e-4", "--out", str(path)]) == 0
        return json.loads(path.read_text())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("tamper", list(TAMPERED_TABLES))
    def test_tampered_green_table_rejected(self, tmp_path, capsys, genuine_table, tamper):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(TAMPERED_TABLES[tamper](genuine_table)))
        capsys.readouterr()
        assert run_cli(["verify", "--green-table", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("verify: green table rejected: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("key", ["r", "Gprime", "remainder"])
    def test_v1_green_table_rejected(self, tmp_path, capsys, genuine_table, key):
        # a genuine table plus any one derived array of the old format
        old = tmp_path / "v1.json"
        old.write_text(json.dumps({**genuine_table, key: _v1(genuine_table)[key]}))
        capsys.readouterr()
        assert run_cli(["verify", "--green-table", str(old)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("verify: green table rejected: ")
        assert "hmtlab-report/2" in captured.err
        assert captured.err.count("\n") == 1

    def test_unreadable_green_table_is_a_configuration_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert run_cli(["verify", "--green-table", str(missing)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"hmtlab: cannot read green table {missing}: ")
        assert captured.err.count("\n") == 1

    def test_valid_green_table(self, tmp_path):
        good = tmp_path / "good.json"
        run_cli(["green", "--n", "2", "--potential", "hardy", "--grid-points", "512",
                 "--epsilon", "1e-4", "--out", str(good)])
        assert run_cli(["verify", "--green-table", str(good), "--out",
                        str(tmp_path / "check.json")]) == 0


class TestSweepCommand:
    def test_boundedness_csv(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run_cli(["sweep", "--mode", "boundedness", "--n", "2", "--beta", "0",
                        "--grid-points", "1024", "--k-max", "20", "--format", "csv",
                        "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# format_version=")
        assert lines[1].startswith("# config=")
        assert lines[2] == "param,value,overflow,divergence_flag"
        assert len(lines) == 3 + 20

    def test_divergence_mode(self, tmp_path):
        out = tmp_path / "d.csv"
        code = run_cli(["sweep", "--mode", "divergence", "--n", "2", "--grid-points", "1024",
                        "--k-max", "8", "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[2].split(",")
        assert header[:4] == ["param", "value", "overflow", "divergence_flag"]
        assert "truncation_m" in header

    def test_improved_requires_lambda(self):
        assert run_cli(["sweep", "--mode", "improved", "--n", "2"]) == 1

    def test_improved_mode(self, tmp_path):
        out = tmp_path / "i.json"
        code = run_cli(["sweep", "--mode", "improved", "--n", "2", "--grid-points", "1024",
                        "--k-max", "6", "--lam", "1.36", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["rows"]) == 6
        grid = make_grid(1024, doc["config"]["epsilon"])
        assert doc["lambda1_hat"] == estimate_lambda1(2, grid).best_value

    def test_improved_lam_checked_against_estimated_lambda1(self, tmp_path, capsys):
        # lambda_1 is 2.3653 at the defaults, so lam = 3.0 breaks the hypothesis
        out = tmp_path / "i.json"
        assert run_cli(["sweep", "--mode", "improved", "--lam", "3.0", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hmtlab: ") and captured.err.count("\n") == 1
        lambda1 = estimate_lambda1(2, make_grid(2048, 1e-6)).best_value
        assert f"lambda1_hat = {lambda1:.6g}" in captured.err
        assert not out.exists()

    def test_missing_mode(self):
        assert run_cli(["sweep", "--n", "2"]) == 1


class TestSearchCommand:
    def test_lambda1_search(self, tmp_path):
        out = tmp_path / "l.json"
        code = run_cli(["search", "--mode", "lambda1", "--n", "2", "--grid-points", "512",
                        "--max-iter", "40", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["search"]["best_value"] > 0

    def test_lambda1_on_unresolving_grid_rejected(self, capsys):
        assert run_cli(["search", "--mode", "lambda1", "--grid-points", "128"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("hmtlab: ") and err.count("\n") == 1

    def test_lambda1_stalls_at_iteration_cap(self, tmp_path):
        out = tmp_path / "l.json"
        code = run_cli(["search", "--mode", "lambda1", "--n", "2", "--grid-points", "512",
                        "--max-iter", "2", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["search"]["stalled"] is True
        assert doc["search"]["iterations"] == 2

    def test_mt_on_unresolving_grid_rejected(self, capsys):
        assert run_cli(["search", "--mode", "mt", "--grid-points", "128"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hmtlab: ") and captured.err.count("\n") == 1

    def test_mt_search(self, tmp_path):
        out = tmp_path / "m.json"
        code = run_cli(["search", "--mode", "mt", "--n", "2", "--beta", "0.5",
                        "--grid-points", "512", "--max-iter", "30", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        traj = doc["search"]["trajectory"]
        assert all(b[1] >= a[1] for a, b in zip(traj, traj[1:]))


class TestRearrangeDemo:
    def test_json_output(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(["rearrange-demo", "--n", "2", "--grid-points", "1024",
                        "--seed", "3", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["polya_szego_margin"] >= -1e-8
        star = np.asarray(doc["u_star"])
        assert np.all(np.diff(star) <= 1e-12)


class TestDeterminism:
    def test_verify_byte_identical(self, tmp_path):
        args = ["verify", "--n", "2", "--grid-points", "1024", "--t-points", "2048",
                "--corpus-size", "4", "--seed", "7"]
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sweep_byte_identical(self, tmp_path):
        args = ["sweep", "--mode", "boundedness", "--n", "2", "--grid-points", "1024",
                "--k-max", "10", "--format", "csv"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestConfigFile:
    def test_file_plus_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "grid_points": 512, "potential": "zero"}))
        out = tmp_path / "g.json"
        code = run_cli(["green", "--config", str(cfg), "--grid-points", "1024",
                        "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["grid_points"] == 1024  # flag overrides file
        assert doc["config"]["potential"] == "zero"

    @pytest.mark.parametrize("command, doc", [
        ("green", {"grid_points": "abc"}), ("green", {"tol": "1e-8"}), ("green", {"n": 2.5}),
        ("green", {"n": True}), ("green", {"n": None}), ("rearrange-demo", {"format": 1}),
        ("green", [2])],
        ids=["int_as_str", "float_as_str", "int_as_float", "int_as_bool",
             "null_without_none_default", "str_as_int", "not_an_object"])
    def test_mistyped_value_rejected(self, tmp_path, capsys, command, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli([command, "--grid-points", "64", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hmtlab: ") and captured.err.count("\n") == 1
        assert "unknown config keys" not in captured.err

    def test_typed_values_accepted(self, tmp_path):
        # a float flag takes an integer
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta": 0, "mode": "lambda1", "grid_points": 512,
                                   "max_iter": 3}))
        out = tmp_path / "l.json"
        assert run_cli(["search", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["beta"] == 0
        # null is allowed where the default is None
        cfg.write_text(json.dumps({"lam": None, "mode": "boundedness", "grid_points": 256,
                                   "k_max": 2}))
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["lam"] is None

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_pts": 512}))
        assert run_cli(["green", "--config", str(cfg)]) == 1

    def test_key_the_subcommand_does_not_read_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": 1e-8}))
        out = tmp_path / "s.json"
        assert run_cli(["sweep", "--mode", "boundedness", "--grid-points", "64",
                        "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hmtlab: unknown config keys for sweep: ['tol']\n"
        assert not out.exists()
