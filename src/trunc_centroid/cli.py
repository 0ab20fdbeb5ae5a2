"""Command-line front end.

Subcommands
    centroid   closed-form / quadrature / monte-carlo centroid of one
               configuration (--method all shows them side by side)
    compare    centroid before and after a shift, with the delta
    verify     inequality sweeps; reports violations as data
    sample     seeded draws plus the Monte Carlo estimate
    figure     reference-example CSV (masked densities + centroids)

Exit codes: 0 success, 1 domain/computation error (sigma <= 0, bad hole,
deep truncation for oracle or sampler), 2 usage error.

JSON output is strict: a non-finite float (an unused CSV cell, an
untestable ratio, the Monte Carlo support mass) is written as null.

--sigma is the scale (standard deviation), never the variance: the
reference example with variance 4 is spelled --sigma 2.

Randomized commands take their randomness only from --seed; there is no
wall-clock fallback.  Negative numbers in scientific notation may need
the --flag=value spelling to survive argument parsing.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .centroid import centroid_exterior, shift_comparison
from .errors import TruncCentroidError
from .figure import render_reference_figure, write_reference_figure
from .model import ExcludedInterval, GaussianParams
from .quadrature import QuadratureConfig, centroid_quadrature

# sampler and verification import numpy, so the commands that need them
# import them when they run and the closed-form commands never load it.
_CHECKS = ("monotonicity", "certificate", "bounds", "derivative")


class _UsageError(Exception):
    pass


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _g17(value: float) -> str:
    return format(value, ".17g")


def _add_problem_flags(p: argparse.ArgumentParser, shift_required: bool = False) -> None:
    p.add_argument("--mu", type=_finite, required=True, help="location")
    p.add_argument(
        "--sigma",
        type=_finite,
        required=True,
        help="scale (standard deviation, NOT variance)",
    )
    p.add_argument("--lower", type=_finite, required=True, help="hole lower edge")
    p.add_argument("--upper", type=_finite, required=True, help="hole upper edge")
    p.add_argument(
        "--shift",
        type=_finite,
        required=shift_required,
        default=0.0,
        help="translation of the density (default 0)",
    )


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format", choices=("json", "csv", "text"), default="text", dest="fmt"
    )
    p.add_argument("--output", default="-", help="file path, or - for stdout")


def _add_quadrature_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--abs-tol", type=_finite, default=1e-13)
    p.add_argument("--rel-tol", type=_finite, default=1e-12)
    p.add_argument("--tail-cutoff", type=_finite, default=12.0)
    p.add_argument("--max-subdivisions", type=int, default=60)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trunc-centroid",
        description=(
            "Conditional expectation of a Gaussian given that it avoids "
            "an interval."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("centroid", help="centroid of one configuration")
    _add_problem_flags(p)
    p.add_argument(
        "--method",
        choices=("closed_form", "quadrature", "monte_carlo", "all"),
        default="closed_form",
    )
    p.add_argument("--n", type=int, help="sample count (monte_carlo)")
    p.add_argument("--seed", type=int, help="RNG seed (monte_carlo)")
    _add_quadrature_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("compare", help="base vs shifted centroid")
    _add_problem_flags(p, shift_required=True)
    _add_output_flags(p)

    p = sub.add_parser("verify", help="inequality sweeps")
    p.add_argument(
        "--check",
        choices=(*_CHECKS, "all"),
        default="all",
    )
    p.add_argument("--mode", choices=("grid", "random"), default="grid")
    p.add_argument("--n-random", type=int, default=1000)
    p.add_argument("--seed", type=int, help="required in random mode")
    for flag in ("--l-range", "--u-range", "--h-range"):
        p.add_argument(
            flag,
            type=_finite,
            nargs=3,
            metavar=("MIN", "MAX", "STEP"),
            help="override the check's default range",
        )
    _add_output_flags(p)

    p = sub.add_parser("sample", help="seeded exterior draws + estimate")
    _add_problem_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_output_flags(p)

    p = sub.add_parser("figure", help="reference-example CSV")
    _add_output_flags(p)

    return parser


def _emit(text: str, output: str) -> None:
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _json(payload: dict, indent: int | None = 2) -> str:
    # Strict JSON: NaN and Infinity become null.  Parsing the lenient text
    # back lets the json module find every non-finite float, however nested.
    plain = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    return json.dumps(plain, indent=indent, allow_nan=False) + "\n"


def _result_dict(result, extra: dict | None = None) -> dict:
    out = {
        "method": result.method.value,
        "value": result.value,
        "support_mass": result.support_mass,
        "warnings": list(result.warnings),
    }
    if extra:
        out.update(extra)
    return out


def _centroid_results(args) -> tuple[list[dict], dict]:
    params = GaussianParams(args.mu, args.sigma)
    hole = ExcludedInterval(args.lower, args.upper)
    cfg = QuadratureConfig(
        abs_tol=args.abs_tol,
        rel_tol=args.rel_tol,
        tail_cutoff_sigmas=args.tail_cutoff,
        max_subdivisions=args.max_subdivisions,
    )
    wanted = (
        ("closed_form", "quadrature", "monte_carlo")
        if args.method == "all"
        else (args.method,)
    )
    if "monte_carlo" in wanted:
        if args.n is None or args.seed is None:
            raise _UsageError("--method monte_carlo requires --n and --seed")
        if args.n < 2:
            raise _UsageError("--n must be >= 2 for monte_carlo")
    results = []
    for method in wanted:
        if method == "closed_form":
            results.append(_result_dict(centroid_exterior(params, hole, args.shift)))
        elif method == "quadrature":
            results.append(
                _result_dict(centroid_quadrature(params, hole, args.shift, cfg))
            )
        else:
            from .sampler import monte_carlo_centroid, sample_exterior

            batch = sample_exterior(params, hole, args.shift, args.n, args.seed)
            estimate = monte_carlo_centroid(batch)
            results.append(
                {
                    "method": "monte_carlo",
                    "value": estimate.mean,
                    "support_mass": math.nan,
                    "warnings": [],
                    "std_error": estimate.std_error,
                    "n": estimate.n,
                    "seed": batch.seed,
                    "acceptance_rate": batch.acceptance_rate,
                }
            )
    discrepancies = {}
    if len(results) > 1:
        by_method = {r["method"]: r["value"] for r in results}
        base = by_method["closed_form"]
        for method, value in by_method.items():
            if method != "closed_form":
                discrepancies[f"closed_form_vs_{method}"] = abs(base - value)
    return results, discrepancies


def _cmd_centroid(args) -> int:
    results, discrepancies = _centroid_results(args)
    if args.fmt == "json":
        payload = {
            "command": "centroid",
            "inputs": {
                "mu": args.mu,
                "sigma": args.sigma,
                "lower": args.lower,
                "upper": args.upper,
                "shift": args.shift,
                "method": args.method,
                "n": args.n,
                "seed": args.seed,
            },
            "results": results,
            "discrepancies": discrepancies,
        }
        _emit(_json(payload), args.output)
    elif args.fmt == "csv":
        lines = ["method,value,support_mass,std_error,n,warnings"]
        for r in results:
            lines.append(
                ",".join(
                    [
                        r["method"],
                        _g17(r["value"]),
                        _g17(r["support_mass"]),
                        _g17(r["std_error"]) if "std_error" in r else "",
                        str(r["n"]) if "n" in r else "",
                        "|".join(r["warnings"]),
                    ]
                )
            )
        _emit("\n".join(lines) + "\n", args.output)
    else:
        lines = []
        for r in results:
            parts = [
                f"{r['method']}: value={_g17(r['value'])}",
                f"support_mass={_g17(r['support_mass'])}",
            ]
            if "std_error" in r:
                parts.append(f"std_error={_g17(r['std_error'])}")
            if r["warnings"]:
                parts.append("warnings=" + "|".join(r["warnings"]))
            lines.append(" ".join(parts))
        for key, value in discrepancies.items():
            lines.append(f"{key}={_g17(value)}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_compare(args) -> int:
    params = GaussianParams(args.mu, args.sigma)
    hole = ExcludedInterval(args.lower, args.upper)
    comparison = shift_comparison(params, hole, args.shift)
    if args.fmt == "json":
        payload = {
            "command": "compare",
            "inputs": {
                "mu": args.mu,
                "sigma": args.sigma,
                "lower": args.lower,
                "upper": args.upper,
                "shift": args.shift,
            },
            "base": _result_dict(comparison.base),
            "shifted": _result_dict(comparison.shifted),
            "shift": comparison.shift,
            "delta": comparison.delta,
        }
        _emit(_json(payload), args.output)
    elif args.fmt == "csv":
        lines = [
            "quantity,value,support_mass,warnings",
            ",".join(
                [
                    "base",
                    _g17(comparison.base.value),
                    _g17(comparison.base.support_mass),
                    "|".join(comparison.base.warnings),
                ]
            ),
            ",".join(
                [
                    "shifted",
                    _g17(comparison.shifted.value),
                    _g17(comparison.shifted.support_mass),
                    "|".join(comparison.shifted.warnings),
                ]
            ),
            ",".join(["delta", _g17(comparison.delta), "", ""]),
        ]
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit(
            "\n".join(
                [
                    f"base:    {_g17(comparison.base.value)}",
                    f"shifted: {_g17(comparison.shifted.value)}",
                    f"delta:   {_g17(comparison.delta)}",
                ]
            )
            + "\n",
            args.output,
        )
    return 0


def _cmd_verify(args) -> int:
    if args.mode == "random" and args.seed is None:
        raise _UsageError("--mode random requires --seed")
    if args.mode == "random" and args.n_random < 1:
        raise _UsageError("--n-random must be >= 1")
    from . import verification as v

    checks = {
        "monotonicity": (v.verify_monotonicity, v.DEFAULT_MONOTONICITY_SPEC),
        "certificate": (v.verify_certificate_positive, v.DEFAULT_CERTIFICATE_SPEC),
        "bounds": (v.verify_bounds, v.DEFAULT_BOUNDS_SPEC),
        "derivative": (v.verify_derivative, v.DEFAULT_DERIVATIVE_SPEC),
    }
    names = _CHECKS if args.check == "all" else [args.check]
    reports = []
    for name in names:
        runner, default_spec = checks[name]
        spec = v.SweepSpec(
            l_range=tuple(args.l_range) if args.l_range else default_spec.l_range,
            u_range=tuple(args.u_range) if args.u_range else default_spec.u_range,
            h_range=tuple(args.h_range) if args.h_range else default_spec.h_range,
            mode=args.mode,
            n_random=args.n_random if args.mode == "random" else 0,
            seed=args.seed if args.seed is not None else 0,
        )
        reports.append(runner(spec))
    if args.fmt == "json":
        payload = {
            "command": "verify",
            "inputs": {
                "check": args.check,
                "mode": args.mode,
                "n_random": args.n_random,
                "seed": args.seed,
            },
            "reports": [
                {
                    "name": r.name,
                    "checks_run": r.checks_run,
                    "violations": [vars(v) for v in r.violations],
                    "untestable": [vars(v) for v in r.untestable],
                    "min_margin": r.min_margin,
                    "min_margin_at": (
                        None
                        if r.min_margin_record is None
                        else vars(r.min_margin_record)
                    ),
                    "passed": r.passed,
                }
                for r in reports
            ],
        }
        _emit(_json(payload), args.output)
    elif args.fmt == "csv":
        _emit(v.render_report_csv(reports), args.output)
    else:
        lines = []
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            lines.append(
                f"{r.name}: checks={r.checks_run} "
                f"violations={len(r.violations)} "
                f"untestable={len(r.untestable)} "
                f"min_margin={_g17(r.min_margin)} {status}"
            )
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_sample(args) -> int:
    from .sampler import monte_carlo_centroid, sample_exterior

    if args.n < 2:
        raise _UsageError("--n must be >= 2")
    params = GaussianParams(args.mu, args.sigma)
    hole = ExcludedInterval(args.lower, args.upper)
    batch = sample_exterior(params, hole, args.shift, args.n, args.seed)
    estimate = monte_carlo_centroid(batch)
    if args.fmt == "json":
        payload = {
            "command": "sample",
            "inputs": {
                "mu": args.mu,
                "sigma": args.sigma,
                "lower": args.lower,
                "upper": args.upper,
                "shift": args.shift,
                "n": args.n,
                "seed": args.seed,
            },
            "estimate": {
                "mean": estimate.mean,
                "std_error": estimate.std_error,
                "n": estimate.n,
            },
            "acceptance_rate": batch.acceptance_rate,
        }
        _emit(_json(payload), args.output)
    elif args.fmt == "csv":
        _emit(
            "mean,std_error,n,acceptance_rate,seed\n"
            + ",".join(
                [
                    _g17(estimate.mean),
                    _g17(estimate.std_error),
                    str(estimate.n),
                    _g17(batch.acceptance_rate),
                    str(batch.seed),
                ]
            )
            + "\n",
            args.output,
        )
    else:
        _emit(
            f"mean={_g17(estimate.mean)} std_error={_g17(estimate.std_error)} "
            f"n={estimate.n} acceptance_rate={_g17(batch.acceptance_rate)}\n",
            args.output,
        )
    return 0


def _cmd_figure(args) -> int:
    if args.output == "-":
        text, _, _ = render_reference_figure()
        sys.stdout.write(text)
        return 0
    base, shifted = write_reference_figure(args.output)
    if args.fmt == "json":
        payload = {
            "command": "figure",
            "output": args.output,
            "centroid_base": base,
            "centroid_shifted": shifted,
        }
        sys.stdout.write(_json(payload, indent=None))
    else:
        sys.stdout.write(
            f"wrote {args.output}: base={_g17(base)} shifted={_g17(shifted)}\n"
        )
    return 0


_COMMANDS = {
    "centroid": _cmd_centroid,
    "compare": _cmd_compare,
    "verify": _cmd_verify,
    "sample": _cmd_sample,
    "figure": _cmd_figure,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except TruncCentroidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(run())
