"""Command-line driver: experiment orchestration and deterministic reports.

Subcommands: green, verify, sweep, search, rearrange-demo.  ``FLAGS`` is the
one table of configuration keys: each key's type, default, help and the
subcommands that read it.  The parser, the defaults, the config-file type
check and the echoed config all come from it, so each subcommand accepts
only the flags it reads.  A flag read in one mode only is parsed and echoed
in every mode: ``sweep --scale`` and ``--lam``, and ``search --beta`` under
``lambda1`` (perfbench's search check reads its ``config.beta``).
Configuration comes from an optional JSON file of flat keys mirroring the
flags, with command-line flags taking precedence; a file key that the
subcommand does not read is rejected like an unknown one.
Outputs are JSON or CSV with every file embedding the subcommand's resolved
config and a format version string; identical config and seed reproduce
outputs byte for byte (floats are emitted with repr / 17 significant digits
and nothing time- or host-dependent is written).  A JSON report is the bytes
of ``json.dumps(doc, indent=2)`` plus a newline, each array written as its
``tolist()``; ``_emit_json`` splices each 1-D array's text into json's layout.

That text (the Green table's G, ``search``'s profile_values,
``rearrange-demo``'s r, u and u_star) is written in chunks of ``ARRAY_CHUNK``
values, but no float object is made: a numpy kernel finds each float64
value's shortest round-trip digits (Schubfach) and lays out the text that
``float.__repr__`` writes, a hundred thousand values in a few dozen array
operations per chunk.  A chunk holding a subnormal, NaN or infinity, and an
array of any other dtype, goes through ``json.dumps`` of its ``tolist()``.
The kernel's tables are built on first use.

``main`` builds its parser once per process, on the first call: the parser
depends only on ``FLAGS``, ``RETIRED`` and the subcommand table, and parsing
leaves it unchanged.

``main`` also sets the process's allocator policy on its first call, where
the C library is glibc: freed memory stays in the heap for reuse instead of
going back to the system, which would fault it in again on the next report
(``_hold_freed_memory``).  Importing ``hmtlab.cli`` sets nothing, so library
users keep glibc's defaults.  Where ``mallopt`` is missing or refuses a
value the policy is left unset; outputs do not depend on it.  Under the
policy the heap's high-water mark stays resident for the rest of the
process, so a command's peak live memory is its footprint: ``green``
drops its table, and with it the grid and the grid's cached arrays,
before the writer runs.

``verify`` certifies its corpus, and ``sweep --mode divergence`` its family,
``CORPUS_BLOCK`` profiles at a time, so memory does not grow with
``--corpus-size`` or ``--k-max``; each row is its profile's alone.

``RETIRED`` holds each subcommand's flags that no computation reads any
more (``verify --t-points``, ``search --seed``): they are parsed and ignored,
so argvs already in use keep working, and never echoed.

Exit codes: 0 success, 1 configuration or validation error, 2 numerical
failure or violated certification.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import FORMAT_VERSION
from .errors import (
    ConvergenceError,
    CorruptTableError,
    DiscretizationFailureError,
    HmtError,
    PotentialInstabilityError,
)
from .extremal import (
    MoserParams,
    SearchOptions,
    boundedness_sweep,
    bump_corpus,
    divergence_probe,
    estimate_lambda1,
    improved_sweep,
    maximize_mt,
    seeded_corpus,
)
from .functionals import (
    Potential,
    RadialProfile,
    check_hardy_littlewood,
    check_polya_szego,
    hyperbolic_ln_norm_pow,
    rearrange,
)
from .green import GreenTable, check_boundary_bound, make_maps, solve_green
from .quad_core import make_grid
from .transplant import TransplantReport, transplant_report

# verify certifies its corpus this many profiles at a time: each block is built,
# normalized and run through the transplant chain as one (rows, nodes) stack.  At
# 4096 nodes on 2 cores 16 rows ran fastest: 8, 32 and 64 rows took 13%, 7% and 17%
# longer a job (fewer rows pay more numpy calls per row, more outgrow the cache).
# sweep --mode divergence probes in blocks of the same size.  No row depends on it.
CORPUS_BLOCK = 16

# A 1-D array is written this many values per _array_text call: the kernel's row and
# index temporaries of 8192 floats take about 3 MB and are freed before the next chunk.
ARRAY_CHUNK = 8192

# _float_text: Schubfach's power-of-ten table starts at 10**324, and v = digits 10**k
# with k = floor(log10(2**q)) >= -324 for every normal double.
_G_K_MIN = -324
_LOW32 = 2**32 - 1
_LOW63 = 2**63 - 1
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
# columns of a value's row of bytes: 17 digits, |exponent| as 4 digits, the exponent's
# sign, then fixed characters; NUL pads a text shorter than the layout's _TEXT_WIDTH,
# the length of "-1.2345678901234567e-308"
_LEAD, _EXP = 0, 17
_EXP_SIGN, _MINUS, _DOT, _ZERO, _E, _NUL, _COMMA = range(21, 28)
_FIXED_BYTES = b"-.0e\0,"  # columns _MINUS to _COMMA
_ROW_WIDTH = 28
_TEXT_WIDTH = 24

# glibc's mallopt parameters and the values main sets.  By default glibc maps blocks
# above a dynamic threshold (128 KB at first) with mmap and trims the heap top beyond
# another, so the 0.5 MB block temporaries of verify, the 0.8 MB 100k-node arrays of
# green and the 2.5 MB verify report were handed back to the system when freed and
# faulted in again on the next use.  With these values every one of them is served
# from the heap and stays there.  Both are set: either one alone turns off glibc's
# dynamic thresholds and faulted more than the defaults.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20  # glibc's largest accepted value on 64-bit hosts
_TRIM_THRESHOLD_BYTES = 64 << 20


class Flag(NamedTuple):
    """One config key's type, default, owning subcommands and flag help."""

    kind: type
    default: Any
    commands: Tuple[str, ...]
    help: Optional[str] = None


_ALL = ("green", "verify", "sweep", "search", "rearrange-demo")

# config key -> flag; "grid_points" is the flag --grid-points
FLAGS: Dict[str, Flag] = {
    "n": Flag(int, 2, _ALL),
    "beta": Flag(float, 0.0, ("verify", "sweep", "search", "rearrange-demo")),
    "potential": Flag(str, "hardy", ("green", "verify"),
                      "zero | hardy | hardy+lambda=<x> | const=<x>"),
    "grid_points": Flag(int, 2048, _ALL),
    "epsilon": Flag(float, 1e-6, _ALL),
    "tol": Flag(float, 1e-8, ("green", "verify"),
                "bound on the Green table's flux residual (10 tol) and its reload check"),
    "seed": Flag(int, 1234, ("verify", "rearrange-demo")),
    "out": Flag(str, None, _ALL),
    "format": Flag(str, "json", ("sweep", "search", "rearrange-demo"), "json | csv"),
    "mode": Flag(str, None, ("sweep", "search"),
                 "sweep: boundedness | divergence | improved; search: mt | lambda1"),
    "scale": Flag(float, 1.0, ("sweep",), "exponent scale (boundedness mode)"),
    "k_min": Flag(int, 1, ("sweep",)),
    "k_max": Flag(int, 20, ("sweep",)),
    "lam": Flag(float, None, ("sweep",), "lambda for the improved sweep"),
    "max_iter": Flag(int, 1000, ("search",)),
    "corpus_size": Flag(int, 20, ("verify",)),
    "margin_tol": Flag(float, 1e-6, ("verify",)),
    "green_table": Flag(str, None, ("verify",),
                        "validate an existing Green table JSON instead of solving"),
}

# subcommand -> its retired integer flags, as config keys: parsed, ignored, never echoed
RETIRED: Dict[str, Tuple[str, ...]] = {"verify": ("t_points",), "search": ("seed",)}


def _own_flags(command: str) -> Dict[str, Flag]:
    return {key: flag for key, flag in FLAGS.items() if command in flag.commands}


class _CliError(Exception):
    """Validation problem that should exit with code 1."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); remap to config error
        raise _CliError(message)


@functools.cache
def _build_parser() -> _ArgumentParser:
    """The process's one parser, built on first use; ``parse_args`` leaves it unchanged."""
    parser = _ArgumentParser(prog="hmtlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, run in _COMMANDS.items():
        p = sub.add_parser(command, help=run.__doc__)
        p.add_argument("--config", type=str, help="JSON config file of flat keys")
        for key, flag in _own_flags(command).items():
            p.add_argument("--" + key.replace("_", "-"), type=flag.kind, help=flag.help)
        for key in RETIRED.get(command, ()):
            p.add_argument("--" + key.replace("_", "-"), type=int,
                           help="ignored: kept for argvs already in use")
    return parser


def _type_ok(value: Any, kind: type, nullable: bool) -> bool:
    if value is None:
        return nullable
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _resolve_config(args: argparse.Namespace) -> Dict[str, Any]:
    """The subcommand's own keys: flag over config file over default, plus ``command``."""
    flags = _own_flags(args.command)
    cfg = {key: flag.default for key, flag in flags.items()}
    if args.config:
        try:
            file_cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise _CliError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise _CliError(f"config file {args.config} must hold a JSON object")
        unknown = set(file_cfg) - set(flags)
        if unknown:
            raise _CliError(f"unknown config keys for {args.command}: {sorted(unknown)}")
        for key, value in file_cfg.items():
            kind = flags[key].kind
            if not _type_ok(value, kind, flags[key].default is None):
                raise _CliError(f"config key {key!r} must be of type {kind.__name__}, "
                                f"got {value!r}")
        cfg.update(file_cfg)
    for key in flags:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    cfg["command"] = args.command
    return cfg


def _validate(cfg: Dict[str, Any]) -> None:
    """Range checks on the keys present; their types are checked already."""
    def require(key, ok, rule):  # keys whose default is None are checked only when given
        if cfg.get(key) is not None and not ok(cfg[key]):
            raise _CliError(f"--{key.replace('_', '-')} must {rule}, got {cfg[key]}")

    require("n", lambda n: n >= 2, "be an integer >= 2")
    require("beta", lambda b: 0.0 <= b < cfg["n"], f"lie in [0, n) with n={cfg['n']}")
    require("grid_points", lambda g: g >= 16, "be >= 16")
    require("epsilon", lambda e: 0.0 < e < 0.5, "lie in (0, 0.5)")
    require("tol", lambda t: math.isfinite(t) and t > 0.0, "be finite and positive")
    require("seed", lambda s: s >= 0, "be >= 0")
    require("format", lambda f: f in ("json", "csv"), "be json or csv")
    require("max_iter", lambda m: m >= 1, "be >= 1")
    require("corpus_size", lambda c: c >= 1, "be >= 1")
    require("margin_tol", lambda m: math.isfinite(m) and m >= 0.0, "be finite and >= 0")
    require("k_max", lambda k: k <= 1074, "be <= 1074, the last k whose scale 2^-k is nonzero")
    require("k_min", lambda k: 1 <= k <= cfg["k_max"], f"lie in [1, --k-max={cfg.get('k_max')}]")
    require("scale", lambda s: math.isfinite(s) and s > 0.0, "be finite and positive")
    require("lam", lambda v: math.isfinite(v) and v >= 0.0, "be finite and >= 0")


def _config_for_output(cfg: Dict[str, Any]) -> Dict[str, Any]:
    # the output path is I/O plumbing, not experiment configuration; embedding
    # it would break byte-identical reproduction across destinations
    return {k: cfg[k] for k in sorted(cfg) if k != "out"}


# _emit_json's stand-in for a 1-D array: json.dumps writes it, the array's text replaces it
_ARRAY_MARK = "\0hmtlab-array\0"


@functools.cache
def _pow10_table() -> np.ndarray:
    """Schubfach's g of each 10**-k, k in [-324, 292], as five uint64 rows.

    g = floor(10**-k / 2**r) + 1 with r chosen so that 2**125 <= g < 2**126;
    with g1 = g >> 63 and g0 = g mod 2**63 the rows are g1 and the 32-bit
    halves of g1 and of g0.  Built with Python ints on first use.
    """
    rows = []
    for k in range(_G_K_MIN, 293):
        p = 10 ** abs(k)
        if k <= 0:  # 10**-k = p: its top 126 bits, p itself when shorter
            shift = p.bit_length() - 126
            g = (p >> shift if shift >= 0 else p << -shift) + 1
        else:  # 10**-k = 1 / p
            g = (1 << (125 + p.bit_length())) // p + 1
        g1, g0 = g >> 63, g & _LOW63
        rows.append((g1, g1 >> 32, g1 & _LOW32, g0 >> 32, g0 & _LOW32))
    return np.array(rows, dtype=np.uint64).T.copy()


def _mul_hi(a_hi, a_lo, b_hi, b_lo):
    """The high 64 bits of the 128-bit product a*b, from the 32-bit halves of a and b."""
    mid = a_lo * b_hi + (a_lo * b_lo >> 32)
    mid2 = a_hi * b_lo + (mid & _LOW32)
    return a_hi * b_hi + (mid >> 32) + (mid2 >> 32)


def _round_to_odd(g, cp):
    """Schubfach's rop(g cp / 2**127): the floor, its low bit set when inexact."""
    g1, g1_hi, g1_lo, g0_hi, g0_lo = g
    cp_hi, cp_lo = cp >> 32, cp & _LOW32
    z = (g1 * cp >> 1) + _mul_hi(g0_hi, g0_lo, cp_hi, cp_lo)
    return (_mul_hi(g1_hi, g1_lo, cp_hi, cp_lo) + (z >> 63)) | ((z & _LOW63) + _LOW63 >> 63)


def _shortest_digits(bits: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(digits, k) of each positive normal double v = digits * 10**k, as ``repr`` picks it.

    Schubfach (Giulietti, "The Schubfach way to render doubles", 2020): of
    the decimals that round to v, the shortest, and of those the nearest,
    the even one on a tie.  ``digits`` may end in zeros.
    """
    biased = (bits >> 52).astype(np.int64)
    c = bits & (2**52 - 1) | 2**52
    q = biased - 1075  # v = c 2**q
    irregular = (c == 2**52) & (biased > 1)  # the gap below v is half the gap above
    # floor(log10(2**q)), or floor(log10(3/4 2**q)) when irregular
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint64)  # 1..5
    g = np.take(_pow10_table(), k - _G_K_MIN, axis=1)
    odd = c & 1  # round half to even: the interval's ends belong to v when c is even
    cb = c << 2  # v, the interval's ends (cb - 2 or cb - 1, cb + 2) in units of 2**(q - 2)
    vbl, vb, vbr = _round_to_odd(g, np.stack([cb - 2 + irregular, cb, cb + 2]) << h)
    vbl += odd
    vbr -= odd
    s = vb >> 2
    sp = s // 10 * 10  # at most one multiple of 10**(k + 1) lies in the interval
    up_in = vbl <= sp << 2
    wp_in = sp + 10 << 2 <= vbr
    u_in = vbl <= s << 2
    w_in = s + 1 << 2 <= vbr
    rest = vb & 3  # both s and s + 1 in the interval: the nearer, the even one on a tie
    up = np.where(u_in != w_in, w_in, (rest == 3) | (rest == 2) & (s & 1 == 1))
    return np.where(up_in != wp_in, sp + wp_in * np.uint64(10), s + up), k


@functools.cache
def _digit_quads() -> np.ndarray:
    """The four ASCII digits of 0..9999, each as one uint32."""
    quad = np.arange(10000)
    chars = np.stack([quad // 1000, quad // 100 % 10, quad // 10 % 10, quad % 10], axis=1)
    return (chars + ord("0")).astype(np.uint8).view(np.uint32).ravel()


def _layout(negative: int, size: int, place: int) -> List[int]:
    """The source columns of ``repr``'s text for a class of values.

    ``size`` is the count of shortest digits; ``place`` 0..19 is the decimal
    point position -3..16 that ``repr`` writes in fixed notation, 20 and 21
    are exponent notation with a 2- and a 3-digit exponent.
    """
    digits = list(range(size))
    if place < 20:
        point = place - 3
        if point <= 0:
            cols = [_ZERO, _DOT] + [_ZERO] * -point + digits
        elif point < size:
            cols = digits[:point] + [_DOT] + digits[point:]
        else:  # the digit columns past the shortest digits hold zeros
            cols = list(range(point)) + [_DOT, _ZERO]
    else:
        cols = [_LEAD] + ([_DOT] + digits[1:] if size > 1 else []) + [_E, _EXP_SIGN]
        cols += list(range(_EXP + (1 if place == 21 else 2), _EXP + 4))
    return [_MINUS] * negative + cols


@functools.cache
def _layouts() -> np.ndarray:
    """Row (negative * 17 + size - 1) * 22 + place: ``_layout``, NUL-padded, then a comma."""
    table = np.full((2 * 17 * 22, _TEXT_WIDTH + 1), _NUL, dtype=np.intp)
    row = 0
    for negative in (0, 1):
        for size in range(1, 18):
            for place in range(22):
                cols = _layout(negative, size, place)
                table[row, :len(cols)] = cols
                row += 1
    table[:, _TEXT_WIDTH] = _COMMA
    return table


def _float_text(bits: np.ndarray, sep: str) -> str:
    """The ``repr`` of each zero or normal double in ``bits``, joined by ``sep``.

    Each value's digits, exponent and the fixed characters fill one row of
    bytes.  Its class's layout gathers its text and a comma out of the row,
    NUL where the text is shorter; the NULs are dropped and each comma, the
    one character no ``repr`` of a float holds, becomes ``sep``.
    """
    zero = bits << 1 == 0
    digits, k = _shortest_digits(np.where(zero, np.uint64(0x3FF0000000000000), bits & _LOW63))
    size = np.searchsorted(_POW10, digits, side="right")
    digits = digits * _POW10[17 - size]  # now 17 digits; 1.0 stands in for a zero
    point = k + size  # v = 0.d1d2... * 10**point
    top = digits // 10**8
    lead = top // 10**8
    quads = np.empty((digits.size, 5), dtype=np.intp)
    for col, eight in ((0, top - lead * 10**8), (2, digits - top * 10**8)):
        quads[:, col] = eight // 10000
        quads[:, col + 1] = eight % 10000
    exponent = np.abs(point - 1)  # of d.ddd notation
    quads[:, 4] = exponent
    rows = np.empty((digits.size, _ROW_WIDTH), dtype=np.uint8)
    rows[:, _LEAD] = lead + ord("0")
    rows[:, 1:_EXP_SIGN] = _digit_quads()[quads].view(np.uint8)
    rows[:, _EXP_SIGN] = np.where(point > 0, ord("+"), ord("-"))
    rows[:, _MINUS:] = np.frombuffer(_FIXED_BYTES, dtype=np.uint8)
    size = 17 - np.argmax(rows[:, 16::-1] != ord("0"), axis=1)  # the shortest digits
    rows[zero, _LEAD] = ord("0")  # a zero is written as 1.0 with the digit 0
    place = np.where((point >= -3) & (point <= 16), point + 3, np.where(exponent < 100, 20, 21))
    negative = (bits >> 63).view(np.int64)
    index = _layouts()[(negative * 17 + size - 1) * 22 + place]
    index += np.arange(0, rows.size, _ROW_WIDTH)[:, None]
    text = rows.ravel()[index]
    return text[text != 0][:-1].tobytes().replace(b",", sep.encode()).decode("ascii")


def _array_text(chunk: np.ndarray, sep: str) -> str:
    """``json.dumps(chunk.tolist(), separators=(sep, ": "))`` without its brackets.

    A float64 chunk of zeros and normal values goes through ``_float_text``;
    one holding a subnormal, NaN or infinity, and any other dtype, through
    ``json.dumps`` itself.
    """
    if chunk.dtype == np.float64:
        bits = np.ascontiguousarray(chunk).view(np.uint64)
        biased = bits >> 52 & 0x7FF
        if ((biased > 0) & (biased < 0x7FF) | (bits << 1 == 0)).all():
            return _float_text(bits, sep)
    return json.dumps(chunk.tolist(), separators=(sep, ": "))[1:-1]


def _emit_json(payload: Dict[str, Any], cfg: Dict[str, Any]) -> str:
    """``json.dumps(doc, indent=2) + "\\n"``, its 1-D arrays written by ``_array_text``.

    ``json.dumps`` writes ``_ARRAY_MARK`` for each array, and each mark is then
    replaced by its array's text, ``ARRAY_CHUNK`` values at a time.
    """
    doc = {"format_version": FORMAT_VERSION, "config": _config_for_output(cfg), **payload}
    arrays: List[np.ndarray] = []

    def mark(value: Any) -> str:
        if not (isinstance(value, np.ndarray) and value.ndim == 1):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        arrays.append(value)
        return _ARRAY_MARK

    pieces = json.dumps(doc, indent=2, default=mark).split(json.dumps(_ARRAY_MARK))
    if len(pieces) != len(arrays) + 1:  # a string of the document holds the mark itself
        pieces = [json.dumps(doc, indent=2, default=np.ndarray.tolist)]
    parts = [pieces[0]]
    for array, piece in zip(arrays, pieces[1:]):
        line = parts[-1][parts[-1].rfind("\n") + 1:]  # the mark's line up to the mark
        indent = line[:len(line) - len(line.lstrip(" "))]
        sep = ",\n" + indent + "  "
        for start in range(0, array.size, ARRAY_CHUNK):
            text = _array_text(array[start:start + ARRAY_CHUNK], sep)
            parts += [sep if start else "[" + sep[1:], text]
        parts += ["\n" + indent + "]" if array.size else "[]", piece]
    # json's indented encoder is a cycle of closures that holds mark, and so every array,
    # until the cyclic collector runs
    arrays.clear()
    parts.append("\n")
    return "".join(parts)  # one join: the 2.5 MB report is copied once


def _emit_csv(header: List[str], rows: Iterable[Sequence[Any]], cfg: Dict[str, Any]) -> str:
    lines = [
        f"# format_version={FORMAT_VERSION}",
        "# config=" + json.dumps(_config_for_output(cfg)),
        ",".join(header),
    ]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, bool):
                cells.append("true" if cell else "false")
            elif isinstance(cell, float):
                cells.append(f"{cell:.17g}")
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _write(text: str, cfg: Dict[str, Any]) -> None:
    if cfg["out"]:
        try:
            Path(cfg["out"]).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise _CliError(f"cannot write {cfg['out']}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _write_report(cfg: Dict[str, Any], payload: Dict[str, Any], header: List[str],
                  rows: Iterable[Sequence[Any]]) -> None:
    """Write the payload as JSON, or under ``--format csv`` the header and rows."""
    if cfg["format"] == "csv":
        _write(_emit_csv(header, rows, cfg), cfg)
    else:
        _write(_emit_json(payload, cfg), cfg)


def _solve_green(cfg: Dict[str, Any]) -> GreenTable:
    """The Green table of the config; a failed solve also says to refine --grid-points."""
    potential = Potential.parse(cfg["potential"])
    grid = make_grid(cfg["grid_points"], float(cfg["epsilon"]))
    try:
        return solve_green(cfg["n"], potential, grid, tol=float(cfg["tol"]))
    except (ConvergenceError, PotentialInstabilityError) as exc:
        exc.args = (f"{exc}; refine --grid-points to rule out the grid",)
        raise


def _cmd_green(cfg: Dict[str, Any]) -> int:
    """solve the Green function and extract its pole data"""
    table = _solve_green(cfg)
    payload = table.report_fields()
    payload["boundary_bound_constant"] = check_boundary_bound(table)
    # the payload's G refers to no grid, so the table, its grid and the grid's cached
    # arrays are freed before the writer runs
    del table
    _write(_emit_json(payload, cfg), cfg)
    return 0


def _cmd_verify(cfg: Dict[str, Any]) -> int:
    """run the transplant certification corpus"""
    if cfg["green_table"]:
        try:
            doc = json.loads(Path(cfg["green_table"]).read_text(encoding="utf-8"))
            GreenTable.from_json_dict(doc)
        except OSError as exc:
            raise _CliError(f"cannot read green table {cfg['green_table']}: {exc}") from exc
        except (ValueError, CorruptTableError) as exc:
            print(f"verify: green table rejected: {exc}", file=sys.stderr)
            return 2
        _write(_emit_json({"green_table": "valid"}, cfg), cfg)
        return 0

    table = _solve_green(cfg)
    maps = make_maps(table, beta=float(cfg["beta"]))
    rng = np.random.default_rng(cfg["seed"])
    size = cfg["corpus_size"]
    reports: List[TransplantReport] = []
    for first in range(0, size, CORPUS_BLOCK):
        block = seeded_corpus(table.grid, cfg["n"], min(CORPUS_BLOCK, size - first), rng, first)
        reports += transplant_report(block, maps)

    margin_tol = float(cfg["margin_tol"])
    worst: Optional[str] = None
    for i, rep in enumerate(reports):
        for name, margin in (("key", rep.key_margin), ("hardy_lemma", rep.hardy_lemma_margin),
                             ("mt_comparison", rep.mt_comparison_margin)):
            if margin < -margin_tol and worst is None:
                worst = f"profile {i}: {name} margin {margin:.3e} < -{margin_tol:g}"
    summary = {
        "profiles": len(reports),
        "min_key_margin": min(r.key_margin for r in reports),
        "min_hardy_lemma_margin": min(r.hardy_lemma_margin for r in reports),
        "min_mt_comparison_margin": min(r.mt_comparison_margin for r in reports),
        "max_grad_defect": max(r.identity_grad_defect for r in reports),
        "max_hardy_defect": max(r.identity_hardy_defect for r in reports),
        "violation": worst,
    }
    payload = {"summary": summary, "reports": [r.to_dict() for r in reports]}
    _write(_emit_json(payload, cfg), cfg)
    if worst is not None:
        print(f"verify: {worst}", file=sys.stderr)
        return 2
    return 0


def _cmd_sweep(cfg: Dict[str, Any]) -> int:
    """Moser/boundary families through the MT functionals"""
    mode = cfg["mode"]
    if mode not in ("boundedness", "divergence", "improved"):
        raise _CliError("sweep requires --mode boundedness|divergence|improved")
    if mode == "improved" and cfg["lam"] is None:
        raise _CliError("improved sweep requires --lam")
    n = cfg["n"]
    beta = float(cfg["beta"])
    grid = make_grid(cfg["grid_points"], float(cfg["epsilon"]))
    ks = range(int(cfg["k_min"]), int(cfg["k_max"]) + 1)
    extra: Dict[str, Any] = {}

    if mode == "divergence":
        points = [row for i in range(0, len(ks), CORPUS_BLOCK)
                  for row in divergence_probe(n, beta, list(ks[i:i + CORPUS_BLOCK]), grid)]
        header = ["param", "value", "overflow", "divergence_flag", "truncation_m"]
        rows = [[p.param, value, False, flag, m] for p in points for value, flag, m
                in ((p.value_low, p.flag_low, n - 1), (p.value_high, p.flag_high, n))]
    else:
        family = [MoserParams(rho=2.0 ** (-k), n=n) for k in ks]
        if mode == "boundedness":
            points = boundedness_sweep(n, beta, family, float(cfg["scale"]), grid)
        else:  # lam must sit below lambda_1, estimated on the sweep's own grid
            lambda1 = estimate_lambda1(n, grid).best_value
            points = improved_sweep(n, beta, float(cfg["lam"]), family, grid, lambda1)
            extra["lambda1_hat"] = lambda1
        header = ["param", "value", "overflow", "divergence_flag"]
        rows = points  # a SweepPoint's fields are the header's columns

    _write_report(cfg, {"rows": [p._asdict() for p in points], **extra}, header, rows)
    return 0


def _cmd_search(cfg: Dict[str, Any]) -> int:
    """constrained maximization / lambda_1 estimation"""
    mode = cfg["mode"]
    if mode not in ("mt", "lambda1"):
        raise _CliError("search requires --mode mt|lambda1")
    n = cfg["n"]
    grid = make_grid(cfg["grid_points"], float(cfg["epsilon"]))
    options = SearchOptions(max_iter=int(cfg["max_iter"]))
    if mode == "mt":
        start = RadialProfile(grid, 0.5 * grid.one_minus_r2)
        report = maximize_mt(n, float(cfg["beta"]), grid, start, options)
    else:
        report = estimate_lambda1(n, grid, options)
    rows = ([float(i), v, False, False] for i, v in report.trajectory)
    _write_report(cfg, {"search": report.to_dict()},
                  ["param", "value", "overflow", "divergence_flag"], rows)
    return 0


def _cmd_rearrange_demo(cfg: Dict[str, Any]) -> int:
    """rearrange a seeded bump profile and report margins"""
    n = cfg["n"]
    grid = make_grid(cfg["grid_points"], float(cfg["epsilon"]))
    profile = bump_corpus(grid, n, 1, cfg["seed"])[0]
    star = rearrange(profile, n)
    ps = check_polya_szego(profile, n)
    payload = {
        "polya_szego_margin": ps.margin,
        "polya_szego_h_margin": ps.h_margin,
        "hardy_littlewood_margin": check_hardy_littlewood(profile, n, float(cfg["beta"])),
        "ln_hyperbolic_before": hyperbolic_ln_norm_pow(profile, n),
        "ln_hyperbolic_after": hyperbolic_ln_norm_pow(star, n),
        "r": grid.nodes,
        "u": profile.values,
        "u_star": star.values,
    }
    _write_report(cfg, payload, ["r", "u", "u_star"], zip(grid.nodes, profile.values, star.values))
    return 0


_COMMANDS = {
    "green": _cmd_green,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "search": _cmd_search,
    "rearrange-demo": _cmd_rearrange_demo,
}


@functools.cache
def _hold_freed_memory() -> None:
    """Set glibc's mmap and trim thresholds once per process; a no-op without ``mallopt``.

    The mmap threshold goes first and the trim threshold only once it is
    accepted, so a refused value leaves glibc's dynamic thresholds as they were.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def main(argv: Optional[List[str]] = None) -> int:
    _hold_freed_memory()
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve_config(args)
        _validate(cfg)
        return _COMMANDS[args.command](cfg)
    except _CliError as exc:
        print(f"hmtlab: {exc}", file=sys.stderr)
        return 1
    except HmtError as exc:
        # domain/convergence failures from the library layer
        numerical = (ConvergenceError, CorruptTableError, DiscretizationFailureError,
                     PotentialInstabilityError)
        code = 2 if isinstance(exc, numerical) else 1
        print(f"hmtlab: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
