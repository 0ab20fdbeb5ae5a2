"""Seeded inputs and high-precision references for the benchmark workloads.

Everything here runs in the orchestrating process (run.py), before and
outside any timed region.  It uses only the standard library plus mpmath,
so the measured process never loads mpmath and never sees how its inputs
were made: it receives plain floats and ints.

The same (workload, seed, scale) always yields the same inputs.  Problems
are drawn by Latin hypercube sampling (one point per stratum of every
coordinate) so that two seeds give different problems with nearly the
same spread of difficulty, which keeps run-to-run figures steady.
"""

from __future__ import annotations

import math
import random
from statistics import NormalDist

WORKLOADS = ("sweeps", "oracle", "sampling", "cli")

# Oracle regimes in standardized units: (name, edge bound, shift bound).
# The near-degenerate regime places a hole of width 1e-12..1e-3 inside
# the moderate range.
ORACLE_REGIMES = (
    ("moderate", 5.0, 3.0),
    ("wide", 30.0, 10.0),
    ("deep", 200.0, 20.0),
    ("degenerate", 5.0, 3.0),
)
ORACLE_PROBLEMS_PER_REGIME = 128

# Sampling classes: exterior mass ranges and draws per op.  The mass
# threshold of the sampler is 0.05; both ranges stay clear of it so the
# class a problem was generated for is the path the sampler takes.  Mass
# is log-uniform in both classes: rejection costs about 1/mass attempts
# per draw, and log strata keep that cost nearly equal from seed to seed.
# The draw counts give each class about half of the wall time.
HIGH_MASS = (0.06, 0.99)
LOW_MASS = (1e-30, 0.04)
HIGH_MASS_DRAWS = 12_500
LOW_MASS_DRAWS = 1_250
SAMPLING_PROBLEMS_PER_CLASS = 64

# Sweep families besides the paper's default grids.
RANDOM_DEFAULT_N = 5_000
WIDE_N = 3_000
WIDE_EDGE = 60.0
WIDE_SHIFT = 30.0

CLI_SAMPLE_DRAWS = 2_000

_NORMAL = NormalDist()


def workload_rng(workload: str, seed: int) -> random.Random:
    """Independent, reproducible stream per (workload, seed)."""
    return random.Random(f"perfbench:{workload}:{int(seed)}")


def latin_hypercube(rng: random.Random, count: int, dims: int) -> list[list[float]]:
    """count points in [0, 1)^dims, one per stratum along every axis."""
    columns = []
    for _ in range(dims):
        strata = list(range(count))
        rng.shuffle(strata)
        columns.append([(s + rng.random()) / count for s in strata])
    return [list(point) for point in zip(*columns)]


def _scaled(count: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(count * scale)))


def _lerp(lo: float, hi: float, t: float) -> float:
    return lo + (hi - lo) * t


def _location_scale(t_mu: float, t_sigma: float) -> tuple[float, float]:
    return _lerp(-2.0, 2.0, t_mu), 2.0 ** _lerp(-1.0, 1.0, t_sigma)


def _standardized(mu, sigma, lower, upper, shift) -> tuple[float, float, float]:
    """(h_hat, l_hat, u_hat) with the float arithmetic of centroid.standardize."""
    return shift / sigma, (lower - mu) / sigma, (upper - mu) / sigma


# ------------------------------------------------------------------ sweeps


def sweeps_inputs(seed: int, scale: float) -> dict:
    """Program seeds and sizes of the two seeded sweep families.

    The third family, the paper's DEFAULT_*_SPEC grids, takes no input.
    """
    rng = workload_rng("sweeps", seed)
    checks = ("monotonicity", "certificate", "bounds", "derivative")
    return {
        "random": [
            {"check": c, "n_random": _scaled(RANDOM_DEFAULT_N, scale, 10),
             "seed": rng.getrandbits(63)}
            for c in checks
        ],
        "wide": [
            {"check": c, "n_random": _scaled(WIDE_N, scale, 10),
             "seed": rng.getrandbits(63),
             "edge": WIDE_EDGE, "shift": WIDE_SHIFT}
            for c in checks
        ],
    }


# ------------------------------------------------------------------ oracle


def oracle_problems(seed: int, scale: float) -> list[dict]:
    rng = workload_rng("oracle", seed)
    per = _scaled(ORACLE_PROBLEMS_PER_REGIME, scale, 4)
    problems = []
    for name, edge, shift_bound in ORACLE_REGIMES:
        for t in latin_hypercube(rng, per, 5):
            mu, sigma = _location_scale(t[3], t[4])
            h = _lerp(-shift_bound, shift_bound, t[2])
            if name == "degenerate":
                l = _lerp(-edge, edge, t[0])
                u = l + 10.0 ** _lerp(-12.0, -3.0, t[1])
            else:
                # Hole edges: one at a uniform position, the other a uniform
                # fraction of the way from it to the far bound.
                a = _lerp(-edge, edge, t[0])
                b = _lerp(a, edge, t[1])
                l, u = (a, b) if b > a else (a, a + 1e-3)
            lower = mu + sigma * l
            upper = mu + sigma * u
            if not upper > lower:
                upper = math.nextafter(lower, math.inf)
            problems.append({
                "regime": name,
                "mu": mu,
                "sigma": sigma,
                "lower": lower,
                "upper": upper,
                "shift": sigma * h,
            })
    # Interleave regimes so every stretch of the closed loop sees all four.
    order = list(range(len(problems)))
    rng.shuffle(order)
    return [problems[i] for i in order]


def oracle_references(problems: list[dict], digits: int = 50) -> list[dict]:
    """mpmath references at `digits` significant digits for each problem.

    centroid is the conditional mean at the problem's shift, base the one
    at shift 0 (the base of shift_comparison), and slope the derivative of
    std_exterior_centroid at the standardized floats the benchmark passes.
    """
    from mpmath import mp as ctx

    mpf = ctx.mpf

    def pdf(x):
        return ctx.exp(-x * x / 2) / ctx.sqrt(2 * ctx.pi)

    def lower_tail(x):
        return ctx.erfc(-x / ctx.sqrt(2)) / 2

    def centroid(mu, sigma, lower, upper, shift):
        mu, sigma, lower, upper, shift = map(mpf, (mu, sigma, lower, upper, shift))
        ru = (upper - mu - shift) / sigma
        rl = (lower - mu - shift) / sigma
        mass = lower_tail(-ru) + lower_tail(rl)
        return mu + shift + sigma * (pdf(ru) - pdf(rl)) / mass

    def slope(h, l, u):
        ru = mpf(u) - mpf(h)
        rl = mpf(l) - mpf(h)
        f_ru, f_rl = pdf(ru), pdf(rl)
        mass = lower_tail(-ru) + lower_tail(rl)
        ratio = (f_ru - f_rl) / mass
        return 1 + (ru * f_ru - rl * f_rl) / mass - ratio * ratio

    refs = []
    with ctx.workdps(digits):
        for p in problems:
            args = (p["mu"], p["sigma"], p["lower"], p["upper"])
            h, l, u = _standardized(*args, p["shift"])
            refs.append({
                "centroid": float(centroid(*args, p["shift"])),
                "base": float(centroid(*args, 0.0)),
                "slope": float(slope(h, l, u)),
            })
    return refs


def oracle_inputs(seed: int, scale: float) -> dict:
    problems = oracle_problems(seed, scale)
    for p in problems:
        p["h_hat"], p["l_hat"], p["u_hat"] = _standardized(
            p["mu"], p["sigma"], p["lower"], p["upper"], p["shift"]
        )
    return {"problems": problems, "refs": oracle_references(problems)}


# ---------------------------------------------------------------- sampling


def _hole_for_mass(mass: float, left_share: float) -> tuple[float, float]:
    """Standardized hole (a, b) whose exterior mass is `mass`."""
    a = _NORMAL.inv_cdf(mass * left_share)
    b = -_NORMAL.inv_cdf(mass * (1.0 - left_share))
    return a, b


def sampling_problem(rng, t, mass_range, log_mass, n, klass) -> dict:
    lo, hi = mass_range
    if log_mass:
        mass = 10.0 ** _lerp(math.log10(lo), math.log10(hi), t[0])
    else:
        mass = _lerp(lo, hi, t[0])
    a, b = _hole_for_mass(mass, _lerp(0.1, 0.9, t[1]))
    mu, sigma = _location_scale(t[2], t[3])
    shift = _lerp(-1.0, 1.0, t[4])
    loc = mu + shift
    return {
        "class": klass,
        "mass": mass,
        "mu": mu,
        "sigma": sigma,
        "lower": loc + sigma * a,
        "upper": loc + sigma * b,
        "shift": shift,
        "n": n,
        "seed": rng.getrandbits(63),
    }


def sampling_inputs(seed: int, scale: float) -> dict:
    rng = workload_rng("sampling", seed)
    per = _scaled(SAMPLING_PROBLEMS_PER_CLASS, scale, 2)
    n_high = _scaled(HIGH_MASS_DRAWS, scale, 100)
    n_low = _scaled(LOW_MASS_DRAWS, scale, 100)
    high = [sampling_problem(rng, t, HIGH_MASS, True, n_high, "high_mass")
            for t in latin_hypercube(rng, per, 5)]
    low = [sampling_problem(rng, t, LOW_MASS, True, n_low, "low_mass")
           for t in latin_hypercube(rng, per, 5)]
    # Alternate the classes so a run cut at any point holds both.
    return {"problems": [p for pair in zip(high, low) for p in pair]}


# --------------------------------------------------------------------- cli


def _flag(name: str, value: float) -> str:
    # --flag=value keeps negative numbers in any notation away from argparse.
    return f"--{name}={value!r}"


def _range_flag(name: str, lo: float, hi: float, step: float) -> list[str]:
    # nargs=3 cannot use the = spelling; fixed-point text parses as a number.
    return [f"--{name}", f"{lo:.6f}", f"{hi:.6f}", f"{step:.6f}"]


def cli_inputs(seed: int, scale: float) -> dict:
    """One invocation per (subcommand variant, format); 18 in all."""
    rng = workload_rng("cli", seed)
    ops = []
    formats = ("json", "csv", "text")
    points = latin_hypercube(rng, len(formats), 5)
    draws = _scaled(CLI_SAMPLE_DRAWS, scale, 100)
    for fmt, t in zip(formats, points):
        mu, sigma = _location_scale(t[3], t[4])
        a = _lerp(-5.0, 4.0, t[0])
        b = _lerp(a + 0.1, 5.0, t[1])
        problem = [_flag("mu", mu), _flag("sigma", sigma),
                   _flag("lower", mu + sigma * a), _flag("upper", mu + sigma * b)]
        shift = _flag("shift", sigma * _lerp(-3.0, 3.0, t[2]))
        ops.append({"command": "centroid", "format": fmt,
                    "argv": ["centroid", *problem, shift, "--format", fmt]})
        ops.append({"command": "compare", "format": fmt,
                    "argv": ["compare", *problem, shift, "--format", fmt]})

        hm = sampling_problem(rng, t, (0.1, 0.9), False, draws, "high_mass")
        hm_flags = [_flag("mu", hm["mu"]), _flag("sigma", hm["sigma"]),
                    _flag("lower", hm["lower"]), _flag("upper", hm["upper"]),
                    _flag("shift", hm["shift"])]
        ops.append({"command": "sample", "format": fmt,
                    "argv": ["sample", *hm_flags, f"--n={draws}",
                             f"--seed={hm['seed']}", "--format", fmt]})
        ops.append({"command": "centroid", "format": fmt,
                    "argv": ["centroid", *hm_flags, "--method", "all",
                             f"--n={draws}", f"--seed={rng.getrandbits(63)}",
                             "--format", fmt]})

        lo = _lerp(-3.0, -1.0, t[0])
        ops.append({"command": "verify", "format": fmt,
                    "argv": ["verify", "--check", "all",
                             *_range_flag("l-range", lo, lo + 4.0, 0.5),
                             *_range_flag("u-range", lo + 0.25, lo + 4.25, 0.5),
                             *_range_flag("h-range", -1.0, 1.0, 0.5),
                             "--format", fmt]})
        # figure writes CSV to stdout, or a file plus a json/text summary.
        figure = ["figure", "--format", fmt]
        if fmt != "csv":
            figure += ["--output", "{tmp}/figure.csv"]
        ops.append({"command": "figure", "format": fmt, "argv": figure})
    return {"ops": ops}


BUILDERS = {
    "sweeps": sweeps_inputs,
    "oracle": oracle_inputs,
    "sampling": sampling_inputs,
    "cli": cli_inputs,
}


def build(workload: str, seed: int, scale: float = 1.0) -> dict:
    return BUILDERS[workload](seed, scale)
