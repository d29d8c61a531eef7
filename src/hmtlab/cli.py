"""Command-line driver: experiment orchestration and deterministic reports.

Subcommands: green, verify, sweep, search, rearrange-demo.  ``FLAGS`` is the
one table of configuration keys: each key's type, default, help and the
subcommands that read it.  The parser, the defaults, the config-file type
check and the echoed config all come from it, so each subcommand accepts
only the flags it reads.  Configuration comes from an optional JSON file of
flat keys mirroring the flags, with command-line flags taking precedence; a
file key that the subcommand does not read is rejected like an unknown one.
Outputs are JSON or CSV with every file embedding the subcommand's resolved
config and a format version string; identical config and seed reproduce
outputs byte for byte (floats are emitted with repr / 17 significant digits
and nothing time- or host-dependent is written).  A JSON report is the bytes
of ``json.dumps(doc, indent=2)`` plus a newline; ``_emit_json`` writes them
with the C encoder for every list or dict that holds only scalars.

``main`` builds its parser once per process, on the first call: the parser
depends only on ``FLAGS``, ``RETIRED`` and the subcommand table, and parsing
leaves it unchanged.

``RETIRED`` holds each subcommand's flags that no computation reads any
more (``verify --t-points``, ``search --seed``): they are parsed and ignored,
so argvs already in use keep working, and never echoed.

Exit codes: 0 success, 1 configuration or validation error, 2 numerical
failure or violated certification.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

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
from .transplant import transplant_report


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
    "tol": Flag(float, 1e-8, ("green", "verify")),
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
    require("k_min", lambda k: 1 <= k <= cfg["k_max"], f"lie in [1, --k-max={cfg.get('k_max')}]")
    require("scale", lambda s: math.isfinite(s) and s > 0.0, "be finite and positive")
    require("lam", lambda v: math.isfinite(v) and v >= 0.0, "be finite and >= 0")


def _config_for_output(cfg: Dict[str, Any]) -> Dict[str, Any]:
    # the output path is I/O plumbing, not experiment configuration; embedding
    # it would break byte-identical reproduction across destinations
    return {k: cfg[k] for k in sorted(cfg) if k != "out"}


# what json encodes without recursing: bool is an int
_SCALARS = (str, int, float, type(None))


def _encode(value: Any, indent: str, parts: List[str]) -> None:
    """Append ``json.dumps(value, indent=2)`` for ``value`` nested at ``indent``.

    A list or dict whose items are all scalars goes through the C encoder
    in one call, its separators carrying the line breaks and indentation;
    only containers that hold containers are walked here.
    """
    if isinstance(value, dict):
        items, ends = value.values(), "{}"
    elif isinstance(value, (list, tuple)):
        items, ends = value, "[]"
    else:
        parts.append(json.dumps(value))
        return
    if not value:
        parts.append(ends)
        return
    inner = indent + "  "
    # the float test first: the long lists are floats, and the tuple check costs more
    if all(type(v) is float or isinstance(v, _SCALARS) for v in items):
        text = json.dumps(value, separators=(",\n" + inner, ": "))
        parts += [ends[0], "\n", inner, text[1:-1], "\n", indent, ends[1]]
        return
    # json's own key rule: int, float, bool and None keys become strings
    heads = ([json.dumps({key: 0})[1:-4] + ": " for key in value] if isinstance(value, dict)
             else [""] * len(value))
    parts.append(ends[0])
    for i, (head, item) in enumerate(zip(heads, items)):
        parts += [",\n" if i else "\n", inner, head]
        _encode(item, inner, parts)
    parts += ["\n", indent, ends[1]]


def _emit_json(payload: Dict[str, Any], cfg: Dict[str, Any]) -> str:
    """``json.dumps(doc, indent=2) + "\\n"``, byte for byte, without its slow path.

    With ``indent`` the json module falls back to its pure-Python encoder,
    which dominates writing a 100k-node Green table or a verify corpus.  So
    ``_encode`` hands every scalar-only list or dict (the G and profile
    arrays, the config, each report row) to the C encoder and walks only
    the containers above them.
    """
    doc = {"format_version": FORMAT_VERSION, "config": _config_for_output(cfg)}
    doc.update(payload)
    parts: List[str] = []
    _encode(doc, "", parts)
    parts.append("\n")
    return "".join(parts)  # one join: the 2.5 MB report is copied once


def _emit_csv(header: List[str], rows: List[List[Any]], cfg: Dict[str, Any]) -> str:
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
    payload = dict(table.to_json_dict())
    payload["boundary_bound_constant"] = check_boundary_bound(table)
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
    corpus = seeded_corpus(table.grid, cfg["n"], cfg["corpus_size"], cfg["seed"])
    reports = [transplant_report(u, maps) for u in corpus]

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
        probe = divergence_probe(n, beta, list(ks), grid)
        header = ["param", "value", "overflow", "divergence_flag", "truncation_m"]
        rows = []
        for row in probe:
            rows.append([row.param, row.value_low, False, row.flag_low, n - 1])
            rows.append([row.param, row.value_high, False, row.flag_high, n])
        json_rows = [r._asdict() for r in probe]
    else:
        family = [MoserParams(rho=2.0 ** (-k), n=n) for k in ks]
        if mode == "boundedness":
            points = boundedness_sweep(n, beta, family, float(cfg["scale"]), grid)
        else:  # lam must sit below lambda_1, estimated on the sweep's own grid
            lambda1 = estimate_lambda1(n, grid).best_value
            points = improved_sweep(n, beta, float(cfg["lam"]), family, grid, lambda1)
            extra["lambda1_hat"] = lambda1
        header = ["param", "value", "overflow", "divergence_flag"]
        rows = [[p.param, p.value, p.overflow, p.divergence_flag] for p in points]
        json_rows = [p._asdict() for p in points]

    if cfg["format"] == "csv":
        _write(_emit_csv(header, rows, cfg), cfg)
    else:
        _write(_emit_json({"rows": json_rows, **extra}, cfg), cfg)
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
    if cfg["format"] == "csv":
        header = ["param", "value", "overflow", "divergence_flag"]
        rows = [[float(i), v, False, False] for i, v in report.trajectory]
        _write(_emit_csv(header, rows, cfg), cfg)
    else:
        _write(_emit_json({"search": report.to_dict()}, cfg), cfg)
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
        "r": grid.nodes.tolist(),
        "u": profile.values.tolist(),
        "u_star": star.values.tolist(),
    }
    if cfg["format"] == "csv":
        header = ["r", "u", "u_star"]
        rows = [[r, u, s] for r, u, s in zip(grid.nodes, profile.values, star.values)]
        _write(_emit_csv(header, rows, cfg), cfg)
    else:
        _write(_emit_json(payload, cfg), cfg)
    return 0


_COMMANDS = {
    "green": _cmd_green,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "search": _cmd_search,
    "rearrange-demo": _cmd_rearrange_demo,
}


def main(argv: Optional[List[str]] = None) -> int:
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
