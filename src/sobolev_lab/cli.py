"""Command-line driver: constants, minimize, spectrum, scan, fit, reproduce.

Options resolve in layers: the OPTIONS defaults, then a JSON config file
(--config), then explicit flags.  This module alone formats results (the
constants and reproduce tables, the scan CSV and the JSON reports); each report
carries SCHEMA_VERSION, and all but the reproduce report embed the fully
resolved configuration.  Files are written atomically (temp file + rename).
Exit codes: 0 success, 1 reproduction failure, 3 numerical failure (a
RuntimeError, LinAlgError or FloatingPointError), 2 configuration error (any
other ValueError: each input is checked once, by the function that uses it).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import constants as cst
from . import optimize as opt
from . import reproduce as rep
from . import stability as st
from .discretization import MIN_NODES, DiscreteFunction, build, laplace_eigenpairs
from .functionals import QuotientSpec, sobolev_conjugate
from .geometry import make_product, make_sphere

EXIT_OK = 0
EXIT_REPRODUCE_FAIL = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3

SCHEMA_VERSION = 1

# Every option of the layered subcommands, {key: default} in report order.  The
# flag is --key with "_" as "-", typed by the default; the bool is a switch.
OPTIONS = {
    "constants": {"model": "sphere", "d": 3, "q": 0.0, "n": 128, "b_budget": 4, "seed": 0},
    "minimize": {"model": "sphere", "d": 3, "q": 0.0, "n": 128, "A": 0.0, "B": 0.0,
                 "init": "constant", "seed": 0, "multistart": False},
    "spectrum": {"model": "sphere", "d": 3, "n": 128, "k": 8},
    "scan": {"model": "sphere", "d": 3, "q": 0.0, "n": 256, "A": 0.0, "B": 0.0, "mode_index": 1,
             "eps_lo": 1e-3, "eps_hi": 1e-1, "eps_count": 25, "family": "constants"},
}

HELP = {
    "config": "JSON file with option overrides",
    "out": "write the JSON report here (atomic)",
    "model": "sphere | product",
    "family": " | ".join(st.EXTREMAL_FAMILIES),
    "d": "ambient dimension (3..16)",
    "n": "number of collocation nodes",
    "q": "exponent in (2, 2*]; default 2*",
    "A": "gradient constant; default A_opt",
    "B": "zero-order constant; default Vol^(2/q-1)",
    "b_budget": "random starts (>= 0) of the BFGS ascent for the B_opt lower bound; "
                "each start and end point is certified by the reference quotient",
    "init": "constant | random | bubble:<b>",
    "seed": "seed (>= 0) of the Philox stream behind the random starts",
    "multistart": "minimize from the constant, eigenmode, bubble and random starts; keep the best",
    "k": "number of eigenpairs",
    "mode_index": "Laplace mode used as the ray direction",
    "eps_lo": "smallest ray step epsilon",
    "eps_hi": "largest ray step epsilon",
    "eps_count": "number of epsilons, log-spaced from eps_lo to eps_hi",
}


class ConfigError(ValueError):
    pass


class NumericalError(RuntimeError):
    pass


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _resolve(args: argparse.Namespace) -> dict:
    """OPTIONS of the command < config file < explicit flags; unknown config keys rejected."""
    defaults = OPTIONS[args.command]
    resolved = dict(defaults)
    if args.config:
        try:
            with open(args.config) as handle:
                file_cfg = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            want = type(defaults[key])
            # bool is a subclass of int: true/false only where the default is a bool
            if (not (isinstance(value, want) or want is float and isinstance(value, int))
                    or isinstance(value, bool) and want is not bool):
                raise ConfigError(f"config key {key!r}: expected {want.__name__}, "
                                  f"got {type(value).__name__}")
            resolved[key] = value
    flags = {key: getattr(args, key) for key in defaults}
    resolved.update({key: flag for key, flag in flags.items() if flag is not None})
    # seeds key a Philox stream, which takes non-negative integers only
    if resolved.get("seed", 0) < 0:
        raise ConfigError(f"seed must be >= 0, got {resolved['seed']}")
    return resolved


def _build_disc(cfg: dict):
    """The model and its discretization."""
    if cfg["model"] not in ("sphere", "product"):
        raise ConfigError(f"model must be 'sphere' or 'product', got {cfg['model']!r}")
    model = (make_sphere if cfg["model"] == "sphere" else make_product)(cfg["d"])
    return model, build(model, cfg["n"])


def _resolve_q(cfg: dict, model) -> float:
    """cfg["q"], or 2* when it is <= 0; a_opt_default rejects a q outside (2, 2*], NaN too."""
    cfg["q"] = sobolev_conjugate(model.dim) if cfg["q"] <= 0 else cfg["q"]
    return cfg["q"]


def _build_spec(cfg: dict) -> QuotientSpec:
    """The spec of cfg; an A or B <= 0 selects the default_spec value, and NaN is rejected."""
    model, disc = _build_disc(cfg)
    spec = cst.default_spec(disc, _resolve_q(cfg, model))
    for key in ("A", "B"):
        if cfg[key] <= 0:
            cfg[key] = getattr(spec, key)
    return dataclasses.replace(spec, A=cfg["A"], B=cfg["B"])


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        _write_atomic(out, text)
        print(f"wrote {out}")
    else:
        print(text)


def _constants_table(report: cst.ConstantsReport) -> str:
    rows = [
        ("model", report.model),
        ("d", str(report.d)),
        ("q", f"{report.q:.6g}"),
        ("S_d", f"{report.S_d:.12g}"),
        ("beta", f"{report.beta:.12g}"),
        (f"A_opt ({report.A_opt_provenance})", f"{report.A_opt:.12g}"),
        ("B_lower (curvature bound)", f"{report.B_lower:.12g}"),
        ("B_opt estimate (lower bound)", f"{report.B_opt_estimate:.12g}"),
        ("strict binding S_d^2 < A_opt(M*)", str(report.strict_binding)),
    ]
    width = max(len(r[0]) for r in rows)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def format_table(results: list[dict]) -> str:
    width = max(len(r["name"]) for r in results) if results else 10
    lines = []
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        lines.append(
            f"{status}  {r['name']:<{width}}  value={r['value']:< 12.6g} "
            f"({r['seconds']:.2f}s)  {r['detail']}"
        )
    n_pass = sum(r["passed"] for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)


def _scan_csv(report: st.ExperimentReport) -> str:
    """One row per epsilon: four floats by repr, and in_fit_window as 0 or 1."""
    columns = ("epsilon", "deficit", "distance", "q_value", "in_fit_window")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows([*(repr(r[c]) for c in columns[:4]), int(r[columns[4]])] for r in report.rows)
    return buf.getvalue()


def cmd_constants(args) -> int:
    cfg = _resolve(args)
    model, disc = _build_disc(cfg)
    q = _resolve_q(cfg, model)
    report = cst.constants_report(disc, q, b_budget=cfg["b_budget"], seed=cfg["seed"])
    print(_constants_table(report))
    if args.out:
        _emit({"schema_version": SCHEMA_VERSION, **dataclasses.asdict(report), "config": cfg},
              args.out)
    return EXIT_OK


def _initial_guess(cfg: dict, disc):
    init = cfg["init"]
    if init == "constant":
        return DiscreteFunction(disc, np.ones(disc.n))
    if init.startswith("bubble:"):
        return st.bubble(disc, 1.0, float(init.split(":", 1)[1]))
    if init == "random":
        phis = laplace_eigenpairs(disc, min(8, disc.n)).matrix
        return DiscreteFunction(disc, opt.random_starts(phis, cfg["seed"], 1)[0])
    raise ConfigError(f"init must be constant, random or bubble:<b>, got {init!r}")


def cmd_minimize(args) -> int:
    cfg = _resolve(args)
    spec = _build_spec(cfg)
    init = _initial_guess(cfg, spec.disc)  # checks --init, with or without --multistart
    try:  # the inputs are checked by now, so a ValueError of the solver is numerical
        if cfg["multistart"]:
            cp = opt.multistart_minimize(spec, seed=cfg["seed"])
        else:
            cp = opt.minimize(spec, init)
    except ValueError as exc:
        raise NumericalError(str(exc)) from exc
    if not math.isfinite(cp.value):
        raise NumericalError("minimization produced a non-finite value")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "value": cp.value,
        "grad_residual": cp.grad_residual,
        "hessian_eigenvalues": cp.hessian_spectrum.eigenvalues.tolist(),
        "kernel_dim": cp.kernel_dim,
        "converged": cp.converged,
        "iterations": cp.iterations,
        "certificate_residual": opt.certify(spec, cp.u),
        "config": cfg,
    }
    _emit(payload, args.out)
    if not cp.converged:
        raise NumericalError(
            f"minimization did not converge (grad residual {cp.grad_residual:.3e})"
        )
    return EXIT_OK


def cmd_spectrum(args) -> int:
    cfg = _resolve(args)
    _, disc = _build_disc(cfg)
    sd = laplace_eigenpairs(disc, cfg["k"])
    payload = {
        "eigenvalues": sd.eigenvalues.tolist(),
        "residuals": sd.residuals.tolist(),
        "schema_version": SCHEMA_VERSION,
        "config": cfg,
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_scan(args) -> int:
    cfg = _resolve(args)
    if cfg["eps_count"] < st.MIN_FIT_POINTS:
        raise ConfigError(f"eps_count must be >= {st.MIN_FIT_POINTS}, got {cfg['eps_count']}")
    spec = _build_spec(cfg)
    ray = st.ray_from_constants(
        spec,
        mode_index=cfg["mode_index"],
        epsilons=st.default_epsilons(cfg["eps_count"], cfg["eps_lo"], cfg["eps_hi"]),
    )
    report = st.ray_scan(spec, ray, cfg["family"])
    _emit({"schema_version": SCHEMA_VERSION, **dataclasses.asdict(report), "config": cfg},
          args.out)
    if args.csv:
        _write_atomic(args.csv, _scan_csv(report))
        print(f"wrote {args.csv}")
    print(
        f"slope {report.fitted_slope:.4f} +/- {report.slope_stderr:.1e} "
        f"-> {report.classification}"
    )
    if math.isnan(report.fitted_slope):
        raise NumericalError("scan produced no usable fit window")
    return EXIT_OK


def cmd_fit(args) -> int:
    try:
        with open(args.input) as handle:
            rows = json.load(handle)["rows"]
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot read scan report {args.input}: {exc}") from exc
    if not isinstance(rows, list) or not all(
        isinstance(r, dict) and all(type(r.get(k)) in (int, float) for k in ("deficit", "distance"))
        for r in rows
    ):
        raise ConfigError(
            f"scan report {args.input}: rows must be objects with numeric deficit and distance"
        )
    window = [r for r in rows if r.get("in_fit_window") and r["deficit"] > 0]
    if not all(0 < r["distance"] < math.inf and r["deficit"] < math.inf for r in window):
        raise ConfigError(f"scan report {args.input}: fit-window values must be finite and > 0")
    if len(window) < 2:
        raise NumericalError("fewer than two usable points in the fit window")
    x = np.array([r["distance"] for r in window])
    y = np.array([r["deficit"] for r in window])
    slope, stderr = st.fit_loglog(x, y)
    if math.isnan(slope):
        raise NumericalError("no slope: all distances in the fit window are equal to rounding")
    verdict = st.classify(slope)
    print(f"slope {slope:.4f} +/- {stderr:.1e} over {len(window)} points -> {verdict}")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    # the suite builds both models, and the product needs an even n
    if args.n is not None and (args.n < MIN_NODES or args.n % 2):
        raise ConfigError(f"n must be even and >= {MIN_NODES}, got {args.n}")
    results = rep.run_suite(only=args.only, n=args.n)
    if not results:
        raise ConfigError(f"--only {args.only!r} matched no criteria")
    print(format_table(results))
    if args.out:
        _emit({"schema_version": SCHEMA_VERSION, "results": results}, args.out)
    return EXIT_OK if all(r["passed"] for r in results) else EXIT_REPRODUCE_FAIL


@functools.cache  # nothing mutates the parser, and building it costs about 2 ms
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sobolev-lab",
        description="Optimal Sobolev constants and stability experiments on model manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, help_text in (
        ("constants", cmd_constants, "optimal-constant report for one model"),
        ("minimize", cmd_minimize, "minimize the Sobolev quotient"),
        ("spectrum", cmd_spectrum, "low Laplace eigenvalues of a model"),
        ("scan", cmd_scan, "deficit/distance scan along a ray from constants"),
    ):
        p = sub.add_parser(command, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help=HELP["config"])
        for key, default in OPTIONS[command].items():
            flag = "--" + key.replace("_", "-")
            if isinstance(default, bool):
                p.add_argument(flag, action="store_true", default=None, help=HELP[key])
            else:
                p.add_argument(flag, type=type(default), help=HELP[key])
        p.add_argument("--out", help=HELP["out"])
        if command == "scan":
            p.add_argument("--csv", help="also write the per-epsilon table as CSV")

    p = sub.add_parser("fit", help="re-fit the exponent from a saved scan report")
    p.add_argument("--input", required=True, help="JSON report produced by scan")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("reproduce", help="run the acceptance suite")
    p.add_argument("--only", help="substring filter on criterion names")
    p.add_argument("--n", type=int,
                   help="override resolution, even and >= 16 (slope tolerances widen below 256)")
    p.add_argument("--out", help="write the results table as JSON")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # first: LinAlgError is a ValueError, and NumericalError a RuntimeError
    except (RuntimeError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    except ValueError as exc:  # a ConfigError, or an input a library function rejects
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
