"""Command-line front end: experiment configuration, execution, CSV/JSON output.

Every command writes (a) a CSV with the primary curve or table, every value
rendered with 17 significant digits (bit-stable for the deterministic paths)
or the literal token ``inf``, and (b) a JSON sidecar holding the full
configuration, library versions, timings, and the provenance of any reference
values, so a run can be reproduced from the sidecar alone.

Exit codes: 0 success; 2 invalid configuration, or a gamma = 0 verdict the
sampled slopes leave undecided (``quadrature.UndecidedError``, printed as
"error: undecided ..."); 3 evaluation budget exceeded (partial results are
flagged in the sidecar); 4 an infinite-measure sentinel where a finite value
was required.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, analysis, catalog, constants
from .cantor import BlockCapError, counterexample_series
from .measure import BudgetExceededError, LevelSetQuery, nu_measure
from .params import Params
from .quadrature import UndecidedError
from .stopping import stopping_intervals

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_BUDGET = 3
EXIT_INFINITE = 4


class ConfigError(ValueError):
    pass


class InfiniteWhereFiniteRequired(RuntimeError):
    pass


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            raise AssertionError("NaN must never reach the output layer")
        return f"{x:.17g}"
    return str(x)


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_sidecar(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sanitize(obj):
    """Replace non-finite floats with the sentinel token for JSON."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return "inf" if math.isinf(x) else x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    return obj


def _versions() -> dict:
    return {
        "slopelab": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _params(args) -> Params:
    return Params(dim=args.dim, p=args.p, gamma=args.gamma)


# ---------------------------------------------------------------------------
# command implementations: each returns (header, rows, extra_sidecar)
# ---------------------------------------------------------------------------

def _cmd_kappa(args):
    value = constants.kappa(args.p, args.dim)
    return (
        ["p", "dim", "kappa"],
        [(args.p, args.dim, value)],
        {"provenance": "sphere-average closed form via log-gamma"},
    )


def _cmd_measure(args):
    u = catalog.make_standard(args.fn, dim=args.dim)
    annulus = None
    if args.delta is not None or args.r_max is not None:
        annulus = (args.delta or 0.0, args.r_max if args.r_max is not None else math.inf)
    q = LevelSetQuery(
        u=u,
        params=_params(args),
        lam=args.lam,
        annulus=annulus,
        method=args.method,
        rel_tol=args.tol,
        seed=args.seed,
        mc_samples=args.mc_samples,
        budget=args.budget,
    )
    est = nu_measure(q)
    if est.infinite and args.require_finite:
        raise InfiniteWhereFiniteRequired(est.diagnostics.get("reason", "infinite measure"))
    return (
        ["lambda", "value", "error", "method", "evaluations", "tail_analytic"],
        [(args.lam, est.value, est.error_bound, est.method, est.evaluations, est.tail_analytic)],
        {"diagnostics": _sanitize(est.diagnostics), "function": u.descriptor()},
    )


def _sweep_rows(s):
    rows = [
        (lam, v, e) for lam, v, e in zip(s.lambdas, s.values, s.errors)
    ]
    extra = {
        "classification": s.classification,
        "limit_estimate": _sanitize(s.limit_estimate),
        "sup_estimate": _sanitize(s.sup_estimate),
    }
    return ["lambda", "value", "error"], rows, extra


def _cmd_sweep(args):
    u = catalog.make_standard(args.fn, dim=args.dim)
    grid = analysis.geometric_grid(args.lam_from, args.lam_to, args.count)
    s = analysis.sweep(u, _params(args), grid, rel_tol=args.tol, budget=args.budget)
    header, rows, extra = _sweep_rows(s)
    extra["function"] = u.descriptor()
    if args.require_finite and any(math.isinf(v) for v in s.values):
        raise InfiniteWhereFiniteRequired("sweep hit the infinite-measure sentinel")
    return header, rows, extra


def _cmd_weaknorm(args):
    u = catalog.make_standard(args.fn, dim=args.dim)
    value = analysis.weak_norm(u, _params(args), rel_tol=args.tol)
    if args.require_finite and math.isinf(value):
        raise InfiniteWhereFiniteRequired("weak-type quasi-norm is infinite")
    return (
        ["p", "gamma", "weak_norm_pth_power"],
        [(args.p, args.gamma, value)],
        {"note": "grid lower bound for the supremum over lambda"},
    )


def _cmd_lipschitz(args):
    u = catalog.make_standard(args.fn)
    value = analysis.estimate_lipschitz(u)
    return ["function", "lipschitz_estimate"], [(u.id, value)], {}


def _cmd_cantor(args):
    seq = analysis.cantor_growth(args.gamma, args.p, range(args.m_min, args.m_max + 1))
    rows = [(r.m, r.value, r.error, r.floor) for r in seq.records]
    return ["m", "value", "error", "floor"], rows, {"slope": seq.slope}


def _cmd_mollified(args):
    seq = analysis.mollified_indicator_growth(args.p, range(args.m_min, args.m_max + 1))
    rows = [(r.m, r.value, r.error) for r in seq.records]
    return ["m", "value", "error"], rows, {"slope": seq.slope}


def _cmd_series(args):
    series = counterexample_series(args.gamma, args.n_max, m_cap=args.m_cap)
    cert = analysis.series_divergence(series)
    rows = [
        (r.n, r.lam_lo, r.lam_hi, r.measured_inf, r.error, r.floor) for r in cert.bins
    ]
    return (
        ["bin", "lambda_lo", "lambda_hi", "inf_lambda_measure", "error", "floor"],
        rows,
        {
            "classification": cert.classification,
            "blocks": [
                {"n": b.n, "radius": b.radius, "lambda": b.lam, "m": b.m, "coef": b.coef}
                for b in series.meta
            ],
        },
    )


def _cmd_bbm(args):
    u = catalog.make_standard(args.fn)
    s_grid = [float(s) for s in args.s_grid.split(",")]
    curve = analysis.bbm_functional(u, args.p, args.radius, s_grid)
    rows = list(zip(curve.s_values, curve.values))
    return ["s", "value"], rows, {"trend": _sanitize(curve.trend)}


def _cmd_stopping(args):
    u = catalog.make_standard(args.fn)
    lo, hi = u.support[0]
    dec = stopping_intervals(
        lambda t: np.abs(u.eval(t)), (lo, hi), args.gamma, breakpoints=u.breakpoints
    )
    rows = [
        (i + 1, a, b, r)
        for i, (a, b, r) in enumerate(zip(dec.endpoints, dec.endpoints[1:], dec.residuals))
    ]
    return (
        ["interval", "left", "right", "residual"],
        rows,
        {"k": dec.k, "endpoints": list(dec.endpoints)},
    )


def _cmd_bv_limit(args):
    s = analysis.bv_indicator_limit(args.length, args.gamma, rel_tol=args.tol)
    header, rows, extra = _sweep_rows(s)
    # kappa(1,1)/|gamma+1| times the total-variation mass (2 for an indicator)
    extra["predicted_limit"] = constants.kappa(1, 1) / abs(args.gamma + 1.0) * 2.0
    return header, rows, extra


def _cmd_reproduce_all(args):
    from .acceptance import run_all

    report = run_all()
    rows = [
        (r["id"], r["title"], "PASS" if r["passed"] else "FAIL", r["runtime_s"])
        for r in report["criteria"]
    ]
    return (
        ["criterion", "title", "status", "runtime_s"],
        rows,
        {"report": _sanitize(report)},
    )


COMMANDS = {
    "kappa": _cmd_kappa,
    "measure": _cmd_measure,
    "sweep": _cmd_sweep,
    "weaknorm": _cmd_weaknorm,
    "lipschitz": _cmd_lipschitz,
    "cantor": _cmd_cantor,
    "mollified": _cmd_mollified,
    "series": _cmd_series,
    "bbm": _cmd_bbm,
    "stopping": _cmd_stopping,
    "bv-limit": _cmd_bv_limit,
    "reproduce-all": _cmd_reproduce_all,
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI: every command takes ``--out`` and ``--json`` plus exactly the
    flags it reads."""
    parser = argparse.ArgumentParser(
        prog="slopelab",
        description="weighted level-set functionals of difference quotients: "
        "measures, sweeps, quasi-norms, and counterexample certificates",
    )
    parser.add_argument("--config", type=str, default=None, help="JSON config file; flags win")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "seed": dict(type=int, default=0),
        "tol": dict(type=float, default=5e-3, help="relative tolerance"),
        "budget": dict(type=int, default=40_000_000),
        "dim": dict(type=int, default=1),
        "fn": dict(type=str, required=True, help="catalog function id"),
        "gamma": dict(type=float, default=1.0),
        "p": dict(type=float, default=1.0),
        "require-finite": dict(action="store_true"),
    }

    def command(name, help, flags=""):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--out", type=str, default=None, help="CSV output path")
        sp.add_argument("--json", dest="json_path", type=str, default=None, help="JSON sidecar path")
        for flag in flags.split():
            sp.add_argument("--" + flag, **shared[flag])
        return sp

    command("kappa", "sphere-average constant", "p dim")
    sp = command("measure", "one weighted level-set measure",
                 "fn dim gamma p tol budget seed require-finite")
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--method", choices=["auto", "grid1d", "rotation2d", "montecarlo"], default="auto")
    sp.add_argument("--delta", type=float, default=None, help="annulus inner radius")
    sp.add_argument("--r-max", type=float, default=None, help="annulus outer radius")
    sp.add_argument("--mc-samples", type=int, default=200_000)
    sp = command("sweep", "lambda sweep with extrapolated limit",
                 "fn dim gamma p tol budget require-finite")
    sp.add_argument("--lambda-from", dest="lam_from", type=float, required=True)
    sp.add_argument("--lambda-to", dest="lam_to", type=float, required=True)
    sp.add_argument("--count", type=int, default=12)
    command("weaknorm", "weak-type quasi-norm (grid lower bound)",
            "fn dim gamma p tol require-finite")
    command("lipschitz", "Lipschitz seminorm via the zero-exponent dichotomy", "fn")
    sp = command("cantor", "staircase level-set growth in the generation", "p")
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--m-min", type=int, default=1)
    sp.add_argument("--m-max", type=int, default=6)
    sp = command("mollified", "mollified-indicator growth at gamma=-1", "p")
    sp.add_argument("--m-min", type=int, default=2)
    sp.add_argument("--m-max", type=int, default=8)
    sp = command("series", "divergence certificate for the truncated series")
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--n-max", type=int, default=3)
    sp.add_argument("--m-cap", type=int, default=2**14)
    sp = command("bbm", "small-exponent energy functional", "fn p")
    sp.add_argument("--radius", type=float, default=2.0)
    sp.add_argument("--s-grid", type=str, default="0.2,0.1,0.05,0.025")
    sp = command("stopping", "calibrated stopping-time intervals (gamma < -1)", "fn")
    sp.add_argument("--gamma", type=float, required=True)
    sp = command("bv-limit", "indicator limit (bounded-variation mismatch)", "gamma tol")
    sp.add_argument("--length", type=float, default=1.0)
    command("reproduce-all", "run the full acceptance suite")
    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Splice a JSON config's settings into ``argv`` as flags of its command.

    Config keys are flag names without the dashes (``lambda_from`` or
    ``lambda-from`` for ``--lambda-from``); ``true`` sets a store-true flag
    and ``false`` leaves it off.  A key the command does not take is a
    configuration error.  The config's flags go right after the command
    name, so a flag also given on the command line, as ``--flag value`` or
    ``--flag=value``, is parsed later and wins.
    """
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(argv)
    if known.config is None:
        return argv
    with open(known.config, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError("a config file holds one JSON object")
    command = cfg.pop("command", None)
    if rest and rest[0] in COMMANDS:
        command, rest = rest[0], rest[1:]
    if command not in COMMANDS:
        raise ConfigError(f"no command given (config command {command!r})")
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = sub.choices[command]._option_string_actions
    tokens = []
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        action = actions.get(flag)
        if action is None or action.dest == "help":
            raise ConfigError(f"{command} takes no {flag} (config key {key!r})")
        if action.nargs != 0:
            tokens.append(f"{flag}={value}")
        elif not isinstance(value, bool):
            raise ConfigError(f"config key {key!r} is a switch; give true or false")
        elif value:
            tokens.append(flag)
    return [command, *tokens, *rest]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except SystemExit:
        return EXIT_BAD_CONFIG

    command = args.command
    out_csv = Path(args.out) if args.out else Path("out") / f"{command.replace('-', '_')}.csv"
    out_json = Path(args.json_path) if args.json_path else out_csv.with_suffix(".json")

    t0 = time.time()
    status = EXIT_OK
    extra: dict = {}
    try:
        header, rows, extra = COMMANDS[command](args)
    except UndecidedError as exc:  # a valid query, not a configuration fault
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (ConfigError, BlockCapError, KeyError, ValueError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        est = exc.partial
        header = ["value", "error", "partial"]
        rows = [(est.value, est.error, True)]
        extra = {"partial": True, "reason": str(exc)}
        status = EXIT_BUDGET
    except InfiniteWhereFiniteRequired as exc:
        print(f"error: infinite measure where finite required: {exc}", file=sys.stderr)
        header, rows = ["error"], [("infinite measure",)]
        extra = {"reason": str(exc)}
        status = EXIT_INFINITE

    elapsed = time.time() - t0
    config_echo = {k: v for k, v in vars(args).items() if k not in ("config",)}
    sidecar = {
        "command": command,
        "argv": argv,
        "config": _sanitize(config_echo),
        "versions": _versions(),
        "timing_s": elapsed,
        "exit_status": status,
        "reference_provenance": {
            "kappa": "sphere-average closed form (log-gamma)",
            "halfline": "exact step measure 2/(|gamma+1| lambda)",
        },
        **_sanitize(extra),
    }
    write_csv(out_csv, header, rows)
    write_sidecar(out_json, sidecar)
    for row in rows:
        print(",".join(_fmt(v) for v in row))
    if command == "reproduce-all" and any(r[2] == "FAIL" for r in rows):
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
