"""Command-line front end.

Subcommands
    centroid   closed-form / quadrature / monte-carlo centroid of one
               configuration (--method all shows them side by side)
    compare    centroid before and after a shift, with the delta
    verify     inequality sweeps; reports violations as data
    sample     seeded draws plus the Monte Carlo estimate
    figure     reference-example CSV (masked densities + centroids)

Every command builds its result once, as a JSON payload, CSV rows and
text lines, and _emit is the one place that picks --format, formats the
CSV and writes --output: the library modules hand over rows, never text.

Exit codes: 0 success, 1 domain/computation error (sigma <= 0, bad hole,
deep truncation for oracle or sampler, a centroid or a draw beyond the
float range, a sweep too large for memory, a sample, a sweep grid or a
random sweep of 2^53 points or more, a random sweep over a range whose
width overflows, a derivative sweep that meets a support mass of 0, a
stdout that its reader closed, even mid-write, or that was closed when
the process started, a command that needs numpy where it is not
installed), 2 usage error (an unknown option or an
--output that cannot be written included).  Usage errors come first: a
command checks its flags before it builds the problem or computes
anything, so a bad flag and a bad sigma together exit 2.  centroid
--method all stops at the first method that declines: exit 1, one error:
line, nothing on stdout; where only the oracle declines, --method
closed_form and --method monte_carlo still answer.

JSON output is strict: a non-finite float (an unused CSV cell, an
untestable ratio) is written as null.

--sigma is the scale (standard deviation), never the variance: the
reference example with variance 4 is spelled --sigma 2.  The quadrature
oracle takes no flags: its window and panels are fixed in the quadrature
module.

Randomized commands take their randomness only from --seed; there is no
wall-clock fallback.  Negative numbers in scientific notation may need
the --flag=value spelling to survive argument parsing.
"""

from __future__ import annotations

import argparse
import gc
import io
import math
import os
import sys

from .centroid import centroid_exterior, shift_comparison
from .errors import DomainError, TruncCentroidError
from .figure import reference_figure
from .model import CentroidResult, ExcludedInterval, GaussianParams, Method, _result
from .quadrature import centroid_quadrature

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
        choices=(*(m.value for m in Method), "all"),
        default=Method.CLOSED_FORM.value,
    )
    p.add_argument("--n", type=int, help="sample count (monte_carlo)")
    p.add_argument("--seed", type=int, help="RNG seed (monte_carlo)")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_centroid)

    p = sub.add_parser("compare", help="base vs shifted centroid")
    _add_problem_flags(p, shift_required=True)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_compare)

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
        ignored = flag == "--h-range"
        p.add_argument(
            flag,
            type=_finite,
            nargs=3,
            metavar=("MIN", "MAX", "STEP"),
            help="override the check's default range"
            + (" (certificate and bounds ignore it, but still check it)" if ignored else ""),
        )
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("sample", help="seeded exterior draws + estimate")
    _add_problem_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("figure", help="reference-example CSV")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_figure)

    return parser


_PROBLEM = ("mu", "sigma", "lower", "upper", "shift")


def _inputs(args, *names: str) -> dict:
    return {name: getattr(args, name) for name in names}


def _problem(args) -> tuple[GaussianParams, ExcludedInterval]:
    return GaussianParams(args.mu, args.sigma), ExcludedInterval(args.lower, args.upper)


def _cell(value) -> str:
    if value is None:
        return ""
    return _g17(value) if isinstance(value, float) else str(value)


def _csv(header: str, rows) -> str:
    """The header, then a line per row: floats to 17 digits, ints str(), None empty."""
    return "\n".join([header, *(",".join(map(_cell, row)) for row in rows)]) + "\n"


def _emit(fmt, output, payload: dict, csv, lines: list[str], indent: int | None = 2) -> int:
    """Write one result in fmt to output (- is stdout); csv is _csv's (header, rows)."""
    if fmt == "json":
        import json  # only here: text and csv runs skip its import
        # Strict JSON: NaN and Infinity become null.  Parsing the lenient
        # text back lets the json module find every non-finite float.
        plain = json.loads(json.dumps(payload), parse_constant=lambda _: None)
        text = json.dumps(plain, indent=indent, allow_nan=False) + "\n"
    elif fmt == "text":
        text = "\n".join(lines) + "\n"
    else:
        text = _csv(*csv)
    if output == "-":
        if sys.stdout is None:  # the process started without fd 1
            raise TruncCentroidError("stdout is closed: write to a file with --output")
        raw = getattr(sys.stdout, "buffer", None)
        if isinstance(raw, io.FileIO):
            # Unbuffered (python -u): the text layer drops what a short
            # write leaves, so finish the write here; a reader that closed
            # the pipe mid-write fails the next one.
            data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
            while data:
                data = data[os.write(raw.fileno(), data):]
        else:
            sys.stdout.write(text)
        return 0
    try:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        reason = exc.strerror or exc
        raise _UsageError(f"cannot write {output}: {reason}") from None
    return 0


def _result_dict(result: CentroidResult, **stats) -> dict:
    return {
        "method": result.method.value,
        "value": result.value,
        "support_mass": result.support_mass,
        "warnings": list(result.warnings),
        **stats,
    }


def _check_draws(args) -> None:
    """The usage rules of --n and --seed, checked before the problem is built."""
    if args.n is None or args.seed is None:
        raise _UsageError("--method monte_carlo requires --n and --seed")
    if args.n < 2:
        raise _UsageError("--n must be >= 2")


def _monte_carlo(args, params: GaussianParams, hole: ExcludedInterval) -> dict:
    """A _result_dict for the seeded sample mean, with its statistics."""
    from .sampler import monte_carlo_centroid, sample_exterior

    batch = sample_exterior(params, hole, args.shift, args.n, args.seed)
    estimate = monte_carlo_centroid(batch)
    result = _result(estimate.mean, Method.MONTE_CARLO, batch.support_mass, params.mu + args.shift)
    return _result_dict(result, std_error=estimate.std_error, n=estimate.n, seed=batch.seed,
                        acceptance_rate=batch.acceptance_rate)


def _cmd_centroid(args) -> int:
    wanted = list(Method) if args.method == "all" else [Method(args.method)]
    if Method.MONTE_CARLO in wanted:
        _check_draws(args)
    params, hole = _problem(args)
    solvers = {
        Method.CLOSED_FORM: lambda: _result_dict(centroid_exterior(params, hole, args.shift)),
        Method.QUADRATURE: lambda: _result_dict(centroid_quadrature(params, hole, args.shift)),
        Method.MONTE_CARLO: lambda: _monte_carlo(args, params, hole),
    }
    results = [solvers[method]() for method in wanted]
    # With --method all, results[0] is the closed form.
    discrepancies = {
        f"closed_form_vs_{r['method']}": abs(results[0]["value"] - r["value"])
        for r in results[1:]
    }
    payload = {
        "command": "centroid",
        "inputs": _inputs(args, *_PROBLEM, "method", "n", "seed"),
        "results": results,
        "discrepancies": discrepancies,
    }
    rows = [
        [r["method"], r["value"], r["support_mass"], r.get("std_error"), r.get("n")]
        + ["|".join(r["warnings"])]
        for r in results
    ]
    lines = []
    for r in results:
        line = f"{r['method']}: value={_g17(r['value'])} "
        line += f"support_mass={_g17(r['support_mass'])}"
        if "std_error" in r:
            line += f" std_error={_g17(r['std_error'])}"
        if r["warnings"]:
            line += " warnings=" + "|".join(r["warnings"])
        lines.append(line)
    lines += [f"{key}={_g17(value)}" for key, value in discrepancies.items()]
    csv = ("method,value,support_mass,std_error,n,warnings", rows)
    return _emit(args.fmt, args.output, payload, csv, lines)


def _cmd_compare(args) -> int:
    comparison = shift_comparison(*_problem(args), args.shift)
    base, shifted = comparison.base, comparison.shifted
    payload = {
        "command": "compare",
        "inputs": _inputs(args, *_PROBLEM),
        "base": _result_dict(base),
        "shifted": _result_dict(shifted),
        "shift": comparison.shift,
        "delta": comparison.delta,
    }
    rows = [
        [name, r.value, r.support_mass, "|".join(r.warnings)]
        for name, r in (("base", base), ("shifted", shifted))
    ]
    rows.append(["delta", comparison.delta, None, None])
    lines = [
        f"base:    {_g17(base.value)}",
        f"shifted: {_g17(shifted.value)}",
        f"delta:   {_g17(comparison.delta)}",
    ]
    csv = ("quantity,value,support_mass,warnings", rows)
    return _emit(args.fmt, args.output, payload, csv, lines)


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
    # A range given replaces the check's default; the others stay.
    ranges = {
        key: tuple(value)
        for key in ("l_range", "u_range", "h_range")
        if (value := getattr(args, key))
    }
    reports = []
    for name in names:
        runner, default_spec = checks[name]
        spec = default_spec._replace(
            **ranges,
            mode=args.mode,
            n_random=args.n_random if args.mode == "random" else 0,
            seed=args.seed if args.seed is not None else 0,
        )
        try:
            reports.append(runner(spec))
        except ZeroDivisionError:  # verify_derivative, at a support mass of 0
            raise DomainError(
                f"{name} sweep: the support mass underflows to 0 where both edges"
                " lie about 38.5 or more from the shift"
            ) from None
    payload = {
        "command": "verify",
        "inputs": _inputs(args, "check", "mode", "n_random", "seed"),
        "reports": [
            {
                "name": r.name,
                "checks_run": r.checks_run,
                "violations": [v._asdict() for v in r.violations],
                "untestable": [v._asdict() for v in r.untestable],
                "min_margin": r.min_margin,
                "min_margin_at": (
                    None if r.min_margin_record is None else r.min_margin_record._asdict()
                ),
                "passed": r.passed,
            }
            for r in reports
        ],
    }
    lines = [
        f"{r.name}: checks={r.checks_run} violations={len(r.violations)} "
        f"untestable={len(r.untestable)} min_margin={_g17(r.min_margin)} "
        + ("PASS" if r.passed else "FAIL")
        for r in reports
    ]
    csv = (",".join(v.CheckRecord._fields), v.report_rows(reports))
    return _emit(args.fmt, args.output, payload, csv, lines)


def _cmd_sample(args) -> int:
    _check_draws(args)
    r = _monte_carlo(args, *_problem(args))
    payload = {
        "command": "sample",
        "inputs": _inputs(args, *_PROBLEM, "n", "seed"),
        "estimate": {"mean": r["value"], "std_error": r["std_error"], "n": r["n"]},
        "acceptance_rate": r["acceptance_rate"],
    }
    row = [r["value"], r["std_error"], r["n"], r["acceptance_rate"], r["seed"]]
    line = (
        f"mean={_g17(r['value'])} std_error={_g17(r['std_error'])} "
        f"n={r['n']} acceptance_rate={_g17(r['acceptance_rate'])}"
    )
    csv = ("mean,std_error,n,acceptance_rate,seed", [row])
    return _emit(args.fmt, args.output, payload, csv, [line])


def _cmd_figure(args) -> int:
    # The CSV goes to --output in every format; a file gets a one-line
    # summary on stdout in --format.
    rows, base, shifted = reference_figure()
    _emit("csv", args.output, {}, ("x,fX_masked,fY_masked", rows), [])
    if args.output == "-":
        return 0
    payload = {
        "command": "figure",
        "output": args.output,
        "centroid_base": base,
        "centroid_shifted": shifted,
    }
    line = f"wrote {args.output}: base={_g17(base)} shifted={_g17(shifted)}"
    return _emit(args.fmt, "-", payload, (line, []), [line], indent=None)


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except TruncCentroidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        print(f"error: {args.command} needs numpy, which is not installed", file=sys.stderr)
        return 1


def entrypoint() -> None:
    try:
        code = run()
        if sys.stdout is not None:  # None when the process started without fd 1
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  As in the signal module's "Note on
        # SIGPIPE", devnull takes its place so the final flush cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    # Finalization need not collect what lives to the exit, such as the
    # ~22 k objects numpy's import leaves tracked; run() leaves the GC alone.
    gc.freeze()
    raise SystemExit(code)
