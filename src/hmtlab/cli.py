"""Command-line driver: experiment orchestration and deterministic reports.

Subcommands: green, verify, sweep, search, rearrange-demo.  Configuration
comes from an optional JSON file of flat keys mirroring the flags, with
command-line flags taking precedence.  Outputs are JSON or CSV with every
file embedding the subcommand's resolved config and a format version
string; identical config and seed reproduce outputs byte for byte (floats
are emitted with repr / 17 significant digits and nothing time- or
host-dependent is written).

Exit codes: 0 success, 1 configuration or validation error, 2 numerical
failure or violated certification.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

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

DEFAULTS: Dict[str, Any] = {
    "n": 2,
    "beta": 0.0,
    "potential": "hardy",
    "grid_points": 2048,
    "epsilon": 1e-6,
    "tol": 1e-8,
    "seed": 1234,
    "out": None,
    "format": "json",
    "mode": None,
    "scale": 1.0,
    "k_min": 1,
    "k_max": 20,
    "corpus_size": 20,
    "margin_tol": 1e-6,
    "max_iter": 1000,
    "lam": None,
    "lambda1": None,
    "green_table": None,
}


class _CliError(Exception):
    """Validation problem that should exit with code 1."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); remap to config error
        raise _CliError(message)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="hmtlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=str, help="JSON config file of flat keys")
        p.add_argument("--n", type=int)
        p.add_argument("--beta", type=float)
        p.add_argument("--potential", type=str,
                       help="zero | hardy | hardy+lambda=<x> | const=<x>")
        p.add_argument("--grid-points", dest="grid_points", type=int)
        p.add_argument("--epsilon", type=float)
        p.add_argument("--tol", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", type=str)
        p.add_argument("--format", choices=("json", "csv"))

    p_green = sub.add_parser("green", help="solve the Green function and extract its pole data")
    common(p_green)

    p_verify = sub.add_parser("verify", help="run the transplant certification corpus")
    common(p_verify)
    p_verify.add_argument("--corpus-size", dest="corpus_size", type=int)
    p_verify.add_argument("--t-points", dest="t_points", type=int,
                          help="ignored: verify transplants on the Green table's image grid")
    p_verify.add_argument("--margin-tol", dest="margin_tol", type=float)
    p_verify.add_argument("--green-table", dest="green_table", type=str,
                          help="validate an existing Green table JSON instead of solving")

    p_sweep = sub.add_parser("sweep", help="Moser/boundary families through the MT functionals")
    common(p_sweep)
    p_sweep.add_argument("--mode", choices=("boundedness", "divergence", "improved"))
    p_sweep.add_argument("--scale", type=float, help="exponent scale (boundedness mode)")
    p_sweep.add_argument("--k-min", dest="k_min", type=int)
    p_sweep.add_argument("--k-max", dest="k_max", type=int)
    p_sweep.add_argument("--lam", type=float, help="lambda for the improved sweep")
    p_sweep.add_argument("--lambda1", type=float, help="lambda_1 estimate the improved sweep checks against")

    p_search = sub.add_parser("search", help="constrained maximization / lambda_1 estimation")
    common(p_search)
    p_search.add_argument("--mode", choices=("mt", "lambda1"))
    p_search.add_argument("--max-iter", dest="max_iter", type=int)

    p_rear = sub.add_parser("rearrange-demo", help="rearrange a seeded bump profile and report margins")
    common(p_rear)
    return parser


def _subparsers(parser: argparse.ArgumentParser) -> Dict[str, argparse.ArgumentParser]:
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _flag_types(parser: argparse.ArgumentParser) -> Dict[str, type]:
    """The type of each config key, read from its flag (choice flags take a str)."""
    return {a.dest: a.type or str
            for p in _subparsers(parser).values() for a in p._actions if a.dest in DEFAULTS}


def _type_ok(value: Any, kind: type, nullable: bool) -> bool:
    if value is None:
        return nullable
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _resolve_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Dict[str, Any]:
    cfg = dict(DEFAULTS)
    path = getattr(args, "config", None)
    if path:
        try:
            file_cfg = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise _CliError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise _CliError(f"config file {path} must hold a JSON object")
        unknown = set(file_cfg) - set(DEFAULTS)
        if unknown:
            raise _CliError(f"unknown config keys: {sorted(unknown)}")
        types = _flag_types(parser)
        for key, value in file_cfg.items():
            if not _type_ok(value, types[key], DEFAULTS[key] is None):
                raise _CliError(f"config key {key!r} must be of type {types[key].__name__}, "
                                f"got {value!r}")
        cfg.update(file_cfg)
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    cfg["command"] = args.command
    return cfg


def _validate(cfg: Dict[str, Any]) -> None:
    if not isinstance(cfg["n"], int) or cfg["n"] < 2:
        raise _CliError(f"--n must be an integer >= 2, got {cfg['n']}")
    if not (0.0 <= float(cfg["beta"]) < cfg["n"]):
        raise _CliError(f"--beta must lie in [0, n), got {cfg['beta']} with n={cfg['n']}")
    if cfg["grid_points"] < 16:
        raise _CliError(f"--grid-points must be >= 16, got {cfg['grid_points']}")
    if not (0.0 < float(cfg["epsilon"]) < 0.5):
        raise _CliError(f"--epsilon must lie in (0, 0.5), got {cfg['epsilon']}")
    if not (math.isfinite(float(cfg["tol"])) and float(cfg["tol"]) > 0.0):
        raise _CliError(f"--tol must be finite and positive, got {cfg['tol']}")
    if cfg["seed"] < 0:
        raise _CliError(f"--seed must be >= 0, got {cfg['seed']}")
    if cfg["format"] not in ("json", "csv"):
        raise _CliError(f"--format must be json or csv, got {cfg['format']}")
    if cfg["max_iter"] < 1:
        raise _CliError(f"--max-iter must be >= 1, got {cfg['max_iter']}")
    if cfg["corpus_size"] < 1:
        raise _CliError(f"--corpus-size must be >= 1, got {cfg['corpus_size']}")
    if not (math.isfinite(float(cfg["margin_tol"])) and float(cfg["margin_tol"]) >= 0.0):
        raise _CliError(f"--margin-tol must be finite and >= 0, got {cfg['margin_tol']}")
    if not 1 <= cfg["k_min"] <= cfg["k_max"]:
        raise _CliError(f"--k-min must lie in [1, --k-max], got {cfg['k_min']} "
                        f"with --k-max {cfg['k_max']}")


def _own_config(cfg: Dict[str, Any], parser: argparse.ArgumentParser) -> Dict[str, Any]:
    """``command`` and the config keys that the subcommand's own flags define."""
    own = {a.dest for a in _subparsers(parser)[cfg["command"]]._actions}
    return {k: v for k, v in cfg.items() if k in own or k == "command"}


def _config_for_output(cfg: Dict[str, Any]) -> Dict[str, Any]:
    # the output path is I/O plumbing, not experiment configuration; embedding
    # it would break byte-identical reproduction across destinations
    return {k: cfg[k] for k in sorted(cfg) if k != "out"}


def _emit_json(payload: Dict[str, Any], cfg: Dict[str, Any]) -> str:
    """``json.dumps(doc, indent=2) + "\\n"``, byte for byte, without its slow path.

    With ``indent`` the json module falls back to its pure-Python encoder,
    which dominates writing a 100k-node Green table.  So each top-level value
    is encoded on its own: a flat list of floats by the C encoder, whose
    ", " separators (never part of a float's repr) become the indented line
    breaks; anything else with ``indent=2``, shifted one level by indenting
    after each newline (JSON strings hold no raw newline).
    """
    doc = {"format_version": FORMAT_VERSION, "config": _config_for_output(cfg)}
    doc.update(payload)
    parts = []
    for key, value in doc.items():
        parts += [",\n  " if parts else "{\n  ", json.dumps(key), ": "]
        if isinstance(value, list) and value and all(type(v) is float for v in value):
            parts += ["[\n    ", json.dumps(value)[1:-1].replace(", ", ",\n    "), "\n  ]"]
        else:
            parts.append(json.dumps(value, indent=2).replace("\n", "\n  "))
    parts.append("\n}\n")
    return "".join(parts)  # one join: the 10 MB report is copied once


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


def _cmd_green(cfg: Dict[str, Any]) -> int:
    potential = Potential.parse(cfg["potential"])
    grid = make_grid(cfg["grid_points"], float(cfg["epsilon"]))
    try:
        table = solve_green(cfg["n"], potential, grid, tol=float(cfg["tol"]))
    except ConvergenceError as exc:
        print(f"green: {exc}", file=sys.stderr)
        return 2
    payload = dict(table.to_json_dict())
    payload["boundary_bound_constant"] = check_boundary_bound(table)
    _write(_emit_json(payload, cfg), cfg)
    return 0


def _cmd_verify(cfg: Dict[str, Any]) -> int:
    if cfg["green_table"]:
        try:
            doc = json.loads(Path(cfg["green_table"]).read_text(encoding="utf-8"))
            GreenTable.from_json_dict(doc)
        except (OSError, ValueError, CorruptTableError) as exc:
            print(f"verify: green table rejected: {exc}", file=sys.stderr)
            return 2
        _write(_emit_json({"green_table": "valid"}, cfg), cfg)
        return 0

    potential = Potential.parse(cfg["potential"])
    grid = make_grid(cfg["grid_points"], float(cfg["epsilon"]))
    table = solve_green(cfg["n"], potential, grid, tol=float(cfg["tol"]))
    maps = make_maps(table, beta=float(cfg["beta"]))
    corpus = seeded_corpus(grid, cfg["n"], cfg["corpus_size"], cfg["seed"], normalized=True)
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
    mode = cfg["mode"]
    if mode not in ("boundedness", "divergence", "improved"):
        raise _CliError("sweep requires --mode boundedness|divergence|improved")
    if mode == "improved" and (cfg["lam"] is None or cfg["lambda1"] is None):
        raise _CliError("improved sweep requires --lam and --lambda1")
    n = cfg["n"]
    beta = float(cfg["beta"])
    grid = make_grid(cfg["grid_points"], float(cfg["epsilon"]))
    ks = range(int(cfg["k_min"]), int(cfg["k_max"]) + 1)

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
        else:
            points = improved_sweep(n, beta, float(cfg["lam"]), family, grid,
                                    float(cfg["lambda1"]))
        header = ["param", "value", "overflow", "divergence_flag"]
        rows = [[p.param, p.value, p.overflow, p.divergence_flag] for p in points]
        json_rows = [p._asdict() for p in points]

    if cfg["format"] == "csv":
        _write(_emit_csv(header, rows, cfg), cfg)
    else:
        _write(_emit_json({"rows": json_rows}, cfg), cfg)
    return 0


def _cmd_search(cfg: Dict[str, Any]) -> int:
    mode = cfg["mode"]
    if mode not in ("mt", "lambda1"):
        raise _CliError("search requires --mode mt|lambda1")
    n = cfg["n"]
    grid = make_grid(cfg["grid_points"], float(cfg["epsilon"]))
    options = SearchOptions(max_iter=int(cfg["max_iter"]), seed=int(cfg["seed"]))
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve_config(args, parser)
        _validate(cfg)
        return _COMMANDS[args.command](_own_config(cfg, parser))
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
