"""The measured process: runs one workload's ops in a closed loop.

run.py starts this script with a job on stdin (JSON: workload, seconds,
trace flag, inputs and references) and reads one JSON result from
stdout.  trunc_centroid is imported from the checkout's src/ through
PYTHONPATH and driven only through its public functions.  There is one
thread, and each op starts when the previous one has returned.

    python3 worker.py --setup <workload>

is the set-up probe: it imports the modules the workload uses, calls each
public function the workload uses once on a fixed small input, prints
"ready" and exits.  run.py times it from process start.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time

perf = time.perf_counter

# checks_run of the paper's DEFAULT_*_SPEC grids at the commit that
# defined this benchmark; the default-range sweeps must keep them.
DEFAULT_GRID_CHECKS = {
    "monotonicity": 4830,
    "certificate": 103041,
    "bounds": 104325,
    "derivative": 6885,
}
# Checks one random-mode item yields on the default ranges (monotonicity:
# the pair plus the shift-sign row; bounds: four one-variable rows plus
# the summed row; derivative: positivity, the two forms, finite differences).
RANDOM_CHECKS_PER_ITEM = {
    "monotonicity": 2,
    "certificate": 1,
    "bounds": 5,
    "derivative": 3,
}
# Known defect recorded at the commit that defined this benchmark: past an
# edge of about 38 std_pdf underflows to 0 and these two sweeps divide by it.
KNOWN_DEFECTS = {
    ("wide", "bounds"): "ZeroDivisionError",
    ("wide", "derivative"): "ZeroDivisionError",
}
ORACLE_TOLERANCE = 1e-9
SAMPLING_SE_GATE = 5.0
LOW_SUPPORT_MASS = "low_support_mass"
DEEP_TRUNCATION = "deep_truncation"


def direct(name, fn, *args, **kwargs):
    """The untraced call path: no bookkeeping around the program."""
    return fn(*args, **kwargs)


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, op id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.op_id]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus time covered by children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s[0]] = out.get(s[0], 0.0) + (s[2] - s[1]) - c
        return out


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def median(values) -> float:
    xs = sorted(values)
    if not xs:
        return 0.0
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, ops) at the highest percentile with >= 10 ops beyond."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return (xs[-1] if xs else 0.0), 100.0, n
    k = n - 11
    return xs[k], 100.0 * (k + 1) / n, n


def per_call(fn, arg_tuples, budget: float) -> float:
    """Mean seconds per call of fn over arg_tuples, repeated for >= budget s."""
    calls = 0
    elapsed = 0.0
    while elapsed < budget and arg_tuples:
        start = perf()
        for args in arg_tuples:
            fn(*args)
        elapsed += perf() - start
        calls += len(arg_tuples)
    return elapsed / calls if calls else 0.0


def metric(value: float, unit: str, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


# ------------------------------------------------------- machine speed

# The reference kernel's time on the nominal machine.  Timed figures are
# rescaled to that machine: see speed_factor, start_factor and README.md.
REFERENCE_S = 1.3e-3
# Op time between two runs of the reference kernel.
CALIBRATE_EVERY_S = 0.02


def _reference_kernel(np) -> float:
    total = 0.0
    for i in range(1, 1500):
        total += math.erfc(i * 1e-3) * math.exp(-1e-4 * i)
    # Small objects made, stored, sorted and dropped, as the sweeps' records are.
    rows = []
    latest = {}
    for i in range(1200):
        row = (i, i * 0.5, str(i))
        rows.append(row)
        latest[i % 97] = row
    rows.sort(key=lambda r: -r[1])
    # Arrays stay far below the allocator's mmap threshold, so the kernel
    # costs the same whatever the program allocated before it.
    words = np.arange(2048, dtype=np.uint64)
    for _ in range(40):
        words = (words * np.uint64(0x9E3779B97F4A7C15)) ^ (words >> np.uint64(29))
        total += float(np.sqrt((words >> np.uint64(11)).astype(np.float64)).sum())
    return total + len(latest)


def speed_factor() -> float:
    """How much slower than nominal the machine runs right now.

    Times a fixed mix of Python float work, small-object churn and numpy
    integer and float array work (best of three).  It is benchmark code,
    so no change to the program moves it; on a shared machine its time
    drifts by +-15 % over seconds together with the program's, and
    dividing op times by this factor removes most of that drift.
    """
    import numpy as np

    best = math.inf
    for _ in range(3):
        start = perf()
        _reference_kernel(np)
        best = min(best, perf() - start)
    return best / REFERENCE_S


# A bare interpreter start (`python -c pass`) on the nominal machine.
REFERENCE_START_S = 0.065


def start_factor() -> float:
    """Speed factor for work done in fresh processes.

    Spawning an interpreter (exec, loading libraries, importing from the
    page cache) drifts on its own, and the in-process kernel does not
    follow it; a bare interpreter start does.
    """
    import subprocess

    start = perf()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return (perf() - start) / REFERENCE_START_S


class Workload:
    """What the loops need of a workload: a pool of inputs and, per input,
    op(k, call) to run it, check(k, output, stats) to judge its output
    (None when correct), work(k, output) for throughput, and the hooks of
    the traced run.  `call(name, fn, *args)` is how an op calls the program,
    so the traced run can wrap each call in a span."""

    speed = staticmethod(speed_factor)

    def known_defect(self, k: int, exc: BaseException) -> bool:
        return False

    def work(self, k: int, out) -> float:
        return 1


# ------------------------------------------------------------------ sweeps


class Sweeps(Workload):
    """One op is one verify_* call; the pool is three families of four."""

    name = "sweeps"
    CHECKS = ("monotonicity", "certificate", "bounds", "derivative")

    def __init__(self, inputs: dict) -> None:
        from trunc_centroid import verification as v

        self.fns = {
            "monotonicity": v.verify_monotonicity,
            "certificate": v.verify_certificate_positive,
            "bounds": v.verify_bounds,
            "derivative": v.verify_derivative,
        }
        defaults = {
            "monotonicity": v.DEFAULT_MONOTONICITY_SPEC,
            "certificate": v.DEFAULT_CERTIFICATE_SPEC,
            "bounds": v.DEFAULT_BOUNDS_SPEC,
            "derivative": v.DEFAULT_DERIVATIVE_SPEC,
        }
        self.pool = [
            {"family": "default", "check": c, "spec": defaults[c]} for c in self.CHECKS
        ]
        for item in inputs["random"]:
            d = defaults[item["check"]]
            spec = v.SweepSpec(d.l_range, d.u_range, d.h_range, mode="random",
                               n_random=item["n_random"], seed=item["seed"])
            self.pool.append({"family": "random", "check": item["check"],
                              "spec": spec, "n": item["n_random"]})
        for item in inputs["wide"]:
            e, s = item["edge"], item["shift"]
            spec = v.SweepSpec((-e, e, 1.0), (-e, e, 1.0), (-s, s, 1.0), mode="random",
                               n_random=item["n_random"], seed=item["seed"])
            self.pool.append({"family": "wide", "check": item["check"],
                              "spec": spec, "n": item["n_random"]})

    def op(self, k: int, call):
        p = self.pool[k]
        return call(f"verification.{p['check']}", self.fns[p["check"]], p["spec"])

    def known_defect(self, k: int, exc: BaseException) -> bool:
        p = self.pool[k]
        return KNOWN_DEFECTS.get((p["family"], p["check"])) == type(exc).__name__

    def check(self, k: int, report, stats: dict) -> str | None:
        p = self.pool[k]
        if report.violations:
            return f"{p['family']} {p['check']}: {len(report.violations)} violations"
        if p["family"] == "wide":
            return None if report.checks_run > 0 else "wide sweep ran no checks"
        if p["family"] == "default":
            expected = DEFAULT_GRID_CHECKS[p["check"]]
        else:
            expected = p["n"] * RANDOM_CHECKS_PER_ITEM[p["check"]]
        if report.checks_run != expected:
            return (f"{p['family']} {p['check']}: checks_run {report.checks_run}, "
                    f"expected {expected}")
        if report.untestable:
            return f"{p['family']} {p['check']}: {len(report.untestable)} untestable"
        return None

    def work(self, k: int, report) -> float:
        return report.checks_run

    def end_to_end(self, loop: dict) -> dict:
        return {"throughput": metric(loop["work"] / loop["busy"], "1/s", of="checks")}

    # -- traced run

    def _items(self, p, rng):
        """The argument tuples the sweep evaluates (random: same law, own draws)."""
        spec = p["spec"]

        def grid(r):
            lo, hi, step = r
            count = int(math.floor((hi - lo) / step + 1e-9))
            return [lo + k * step for k in range(count + 1)]

        def draws(r, n):
            return [rng.uniform(r[0], r[1]) for _ in range(n)]

        check = p["check"]
        if spec.mode == "grid":
            xs1, xs2, hs = grid(spec.l_range), grid(spec.u_range), grid(spec.h_range)
            if check == "monotonicity":
                return [(l, u, hs[i], hs[i + 1]) for l in xs1 for u in xs2 if u > l
                        for i in range(len(hs) - 1)]
            if check == "derivative":
                return [(l, u, h) for l in xs1 for u in xs2 if u > l for h in hs]
            pairs = [(a, b) for a in xs1 for b in xs2]
            return (xs1, pairs) if check == "bounds" else pairs
        n = spec.n_random
        a = draws(spec.l_range, n)
        b = draws(spec.u_range, n)
        holes = [(min(x, y), max(x, y)) for x, y in zip(a, b) if x != y]
        if check == "monotonicity":
            h1 = draws(spec.h_range, len(holes))
            h2 = draws(spec.h_range, len(holes))
            return [(l, u, min(x, y), max(x, y)) for (l, u), x, y in zip(holes, h1, h2)]
        if check == "derivative":
            return [(l, u, h) for (l, u), h in zip(holes, draws(spec.h_range, len(holes)))]
        pairs = list(zip(a, b))
        return (a, pairs) if check == "bounds" else pairs

    def _core_seconds(self, p, items) -> float:
        """Time of the closed-form and special calls the sweep makes on items."""
        from trunc_centroid import (
            mills_lower_bound_cdf, mills_lower_bound_tail, slope_certificate,
            std_cdf, std_exterior_centroid, std_exterior_centroid_slope, std_pdf,
            std_tail,
        )

        check = p["check"]
        start = perf()
        if check == "monotonicity":
            for l, u, h1, h2 in items:
                std_exterior_centroid(h1, l, u)
                std_exterior_centroid(h2, l, u)
                if h2 != 0.0:
                    std_exterior_centroid(0.0, l, u)
        elif check == "certificate":
            for x1, x2 in items:
                slope_certificate(x1, x2)
        elif check == "bounds":
            singles, pairs = items
            for x in singles:
                std_pdf(x), std_tail(x), mills_lower_bound_tail(x), std_cdf(x)
                mills_lower_bound_cdf(x), std_tail(x), std_cdf(x)
            for x1, x2 in pairs:
                std_pdf(x1), std_pdf(x2), std_tail(x1), std_cdf(x2)
        else:
            eps = 1e-5
            for l, u, h in items:
                # The slope twice: once for itself, once standing in for the
                # quotient-rule form, which has no public name.
                std_exterior_centroid_slope(h, l, u)
                std_exterior_centroid_slope(h, l, u)
                std_exterior_centroid(h + eps, l, u)
                std_exterior_centroid(h - eps, l, u)
        return perf() - start

    def probe_args(self, rng) -> dict:
        xs = []
        items = []
        for p in self.pool:
            spec = p["spec"]
            for r in (spec.l_range, spec.u_range):
                xs += [rng.uniform(r[0], r[1]) for _ in range(100)]
            for _ in range(50):
                l, u = sorted((rng.uniform(*spec.l_range[:2]), rng.uniform(*spec.u_range[:2])))
                if u > l:
                    items.append((rng.uniform(*spec.h_range[:2]), l, u))
        return {"x": xs, "problems": [(0.0, 1.0, l, u, h) for h, l, u in items],
                "hlu": items}

    def layer_metrics(self, tracer: Tracer, last_pass: list, rng, budget: float) -> dict:
        from trunc_centroid.philox import CounterStream

        out = {}
        returned = [(k, out_) for k, out_, err in last_pass if err is None]
        checks = sum(r.checks_run for _, r in returned)
        out["verification.checks_run"] = metric(checks, "count")
        out["verification.violations"] = metric(
            sum(len(r.violations) for _, r in returned), "count")
        out["verification.untestable"] = metric(
            sum(len(r.untestable) for _, r in returned), "count")
        op_means = {}
        for k, p in enumerate(self.pool):
            times = [s[2] - s[1] for s in tracer.spans
                     if s[0] == f"verification.{p['check']}" and s[4] % len(self.pool) == k]
            op_means[k] = mean(times)
        for k, p in enumerate(self.pool):
            if p["family"] == "default":
                out[f"verification.{p['check']}_s"] = metric(op_means[k], "s")
        ok = [k for k, _ in returned]
        busy = sum(op_means[k] for k in ok)
        out["verification.us_per_check"] = metric(1e6 * busy / checks if checks else 0.0, "us")
        core = sum(self._core_seconds(self.pool[k], self._items(self.pool[k], rng)) for k in ok)
        out["verification.self_us_per_check"] = metric(
            1e6 * (busy - core) / checks if checks else 0.0, "us")
        takes = {"monotonicity": 4, "certificate": 2, "bounds": 2, "derivative": 3}
        stream_calls = []
        for p in self.pool:
            if p["family"] != "default":
                stream_calls += [(p["spec"].seed, p["n"])] * takes[p["check"]]
        out["philox.counterstream_us"] = metric(
            1e6 * per_call(lambda s, n: CounterStream(s, 2).take(n), stream_calls, budget),
            "us")
        return out


# ------------------------------------------------------------------ oracle


class Oracle(Workload):
    """One op is one problem through closed form, slope, comparison, quadrature."""

    name = "oracle"

    def __init__(self, inputs: dict) -> None:
        import trunc_centroid as tc

        self.tc = tc
        self.pool = inputs["problems"]
        self.refs = inputs["refs"]

    def op(self, k: int, call):
        tc = self.tc
        p = self.pool[k]
        params = call("model.GaussianParams", tc.GaussianParams, p["mu"], p["sigma"])
        hole = call("model.ExcludedInterval", tc.ExcludedInterval, p["lower"], p["upper"])
        closed = call("centroid.centroid_exterior", tc.centroid_exterior,
                      params, hole, p["shift"])
        slope = call("centroid.std_exterior_centroid_slope",
                     tc.std_exterior_centroid_slope, p["h_hat"], p["l_hat"], p["u_hat"])
        comparison = call("centroid.shift_comparison", tc.shift_comparison,
                          params, hole, p["shift"])
        try:
            quad = call("quadrature.centroid_quadrature", tc.centroid_quadrature,
                        params, hole, p["shift"])
        except tc.DeepTruncationError:
            quad = None  # the documented refusal, not a failure
        return closed, slope, comparison, quad

    def check(self, k: int, out, stats: dict) -> str | None:
        closed, slope, comparison, quad = out
        ref = self.refs[k]
        regime = self.pool[k]["regime"]

        def scaled(v, r):
            return abs(v - r) / max(1.0, abs(r))

        for key in ("centroid_max_err", "slope_max_err", "quadrature_max_err",
                    "quadrature_flagged_max_err"):
            stats.setdefault(key, 0.0)
        stats.setdefault("slope_worst", None)
        err = max(scaled(closed.value, ref["centroid"]),
                  scaled(comparison.shifted.value, ref["centroid"]),
                  scaled(comparison.base.value, ref["base"]))
        stats["centroid_max_err"] = max(stats["centroid_max_err"], err)
        slope_err = abs(slope - ref["slope"]) / abs(ref["slope"])
        if slope_err > stats["slope_max_err"]:
            stats["slope_max_err"] = slope_err
            stats["slope_worst"] = {"regime": regime, "problem": self.pool[k]}
        if not err <= ORACLE_TOLERANCE:
            return f"closed form off by {err:.3e} ({regime})"
        if not (math.isfinite(slope) and slope > 0.0):
            return f"slope {slope!r} is not finite and positive ({regime})"
        if quad is None:
            return None
        q_err = scaled(quad.value, ref["centroid"])
        if LOW_SUPPORT_MASS in quad.warnings:
            stats["quadrature_flagged_max_err"] = max(
                stats["quadrature_flagged_max_err"], q_err)
            return None
        stats["quadrature_max_err"] = max(stats["quadrature_max_err"], q_err)
        if not q_err <= ORACLE_TOLERANCE:
            return f"quadrature off by {q_err:.3e} ({regime})"
        return None

    def end_to_end(self, loop: dict) -> dict:
        s = loop["stats"]
        return {
            "throughput": metric(loop["work"] / loop["busy"], "1/s", of="problems"),
            "centroid_max_err": metric(s["centroid_max_err"], "ratio", error="scaled"),
            "slope_max_err": metric(s["slope_max_err"], "ratio", error="relative",
                                    worst=s["slope_worst"]),
            "quadrature_max_err": metric(s["quadrature_max_err"], "ratio", error="scaled",
                                         counts="results without low_support_mass"),
            "quadrature_flagged_max_err": metric(
                s["quadrature_flagged_max_err"], "ratio", error="scaled",
                counts="results flagged low_support_mass (not failures)"),
        }

    def probe_args(self, rng) -> dict:
        xs = []
        hlu = []
        problems = []
        for p in self.pool:
            xs += [p["u_hat"] - p["h_hat"], p["l_hat"] - p["h_hat"]]
            hlu.append((p["h_hat"], p["l_hat"], p["u_hat"]))
            problems.append((p["mu"], p["sigma"], p["lower"], p["upper"], p["shift"]))
        return {"x": xs, "hlu": hlu, "problems": problems}

    def layer_metrics(self, tracer: Tracer, last_pass: list, rng, budget: float) -> dict:
        out = {}
        quad = tracer.durations("quadrature.centroid_quadrature")
        ops = tracer.durations("op")
        out["quadrature.centroid_us"] = metric(1e6 * mean(quad), "us")
        out["quadrature.centroid_p99_us"] = metric(
            1e6 * sorted(quad)[int(0.99 * (len(quad) - 1))] if quad else 0.0, "us")
        out["quadrature.time_share"] = metric(sum(quad) / sum(ops) if ops else 0.0, "ratio")
        refused = flagged = failures = log_ops = 0
        for k, o, err in last_pass:
            if err is not None:
                failures += type(err).__name__ == "ToleranceNotMetError"
                continue
            closed, _, _, q = o
            log_ops += DEEP_TRUNCATION in closed.warnings
            if q is None:
                refused += 1
            elif LOW_SUPPORT_MASS in q.warnings:
                flagged += 1
        out["quadrature.refused"] = metric(refused, "count")
        out["quadrature.low_mass_flagged"] = metric(flagged, "count")
        out["quadrature.tolerance_failures"] = metric(failures, "count")
        out["centroid.log_branch_ops"] = metric(log_ops, "count")
        out["centroid.slope_us"] = metric(
            1e6 * mean(tracer.durations("centroid.std_exterior_centroid_slope")), "us")
        return out


# ---------------------------------------------------------------- sampling


class Sampling(Workload):
    """One op is one problem through sample_exterior and monte_carlo_centroid."""

    name = "sampling"

    def __init__(self, inputs: dict) -> None:
        import trunc_centroid as tc

        self.tc = tc
        self.pool = inputs["problems"]

    def op(self, k: int, call):
        tc = self.tc
        p = self.pool[k]
        params = call("model.GaussianParams", tc.GaussianParams, p["mu"], p["sigma"])
        hole = call("model.ExcludedInterval", tc.ExcludedInterval, p["lower"], p["upper"])
        batch = call(f"sampler.sample_exterior.{p['class']}", tc.sample_exterior,
                     params, hole, p["shift"], p["n"], p["seed"])
        estimate = call("sampler.monte_carlo_centroid", tc.monte_carlo_centroid, batch)
        return batch, estimate

    def check(self, k: int, out, stats: dict) -> str | None:
        import numpy as np

        tc = self.tc
        p = self.pool[k]
        batch, estimate = out
        v = batch.values
        if v.shape != (p["n"],) or not np.all(np.isfinite(v)):
            return f"{p['class']}: expected {p['n']} finite draws"
        inside = int(np.count_nonzero((v > p["lower"]) & (v < p["upper"])))
        if inside:
            return f"{p['class']}: {inside} draws inside the hole"
        exact = tc.centroid_exterior(tc.GaussianParams(p["mu"], p["sigma"]),
                                     tc.ExcludedInterval(p["lower"], p["upper"]),
                                     p["shift"]).value
        z = abs(estimate.mean - exact) / estimate.std_error
        stats["max_abs_z"] = max(stats.get("max_abs_z", 0.0), z)
        if not z <= SAMPLING_SE_GATE:
            return f"{p['class']}: mean {z:.2f} standard errors from the closed form"
        return None

    def work(self, k: int, out) -> float:
        return self.pool[k]["n"]

    def end_to_end(self, loop: dict) -> dict:
        out = {"throughput": metric(loop["work"] / loop["busy"], "1/s", of="draws"),
               "mean_max_z": metric(loop["stats"].get("max_abs_z", 0.0), "SE",
                                    note="worst |mean - closed form| in standard errors")}
        for klass in ("high_mass", "low_mass"):
            ks = [(k, d) for k, d, ok in loop["ops"] if ok and self.pool[k]["class"] == klass]
            draws = sum(self.pool[k]["n"] for k, _ in ks)
            busy = sum(d for _, d in ks)
            out[f"{klass}_draws_per_s"] = metric(draws / busy if busy else 0.0, "1/s")
        return out

    def probe_args(self, rng) -> dict:
        xs = []
        hlu = []
        problems = []
        for p in self.pool:
            a = (p["lower"] - p["mu"] - p["shift"]) / p["sigma"]
            b = (p["upper"] - p["mu"] - p["shift"]) / p["sigma"]
            xs += [a, b, -a]
            hlu.append((p["shift"] / p["sigma"], (p["lower"] - p["mu"]) / p["sigma"],
                        (p["upper"] - p["mu"]) / p["sigma"]))
            problems.append((p["mu"], p["sigma"], p["lower"], p["upper"], p["shift"]))
        return {"x": xs, "hlu": hlu, "problems": problems}

    def layer_metrics(self, tracer: Tracer, last_pass: list, rng, budget: float) -> dict:
        import numpy as np
        from trunc_centroid.philox import philox4x64

        out = {}
        rates = {}
        attempts = draws = 0.0
        for klass, name in (("high_mass", "rejection"), ("low_mass", "tail")):
            spans = tracer.durations(f"sampler.sample_exterior.{klass}")
            n = next(p["n"] for p in self.pool if p["class"] == klass)
            out[f"sampler.{name}_draws_per_s"] = metric(
                len(spans) * n / sum(spans) if spans else 0.0, "1/s")
        for k, o, err in last_pass:
            if err is None and self.pool[k]["class"] == "high_mass":
                batch = o[0]
                draws += batch.values.size
                attempts += batch.values.size / batch.acceptance_rate
                rates[k] = batch.acceptance_rate
        out["sampler.acceptance_rate"] = metric(draws / attempts if attempts else 0.0, "ratio")
        out["sampler.mc_estimate_us"] = metric(
            1e6 * mean(tracer.durations("sampler.monte_carlo_centroid")), "us")
        # philox4x64 at the batch sizes of the rejection rounds: round r of a
        # problem with acceptance a draws for the n (1 - a)^r still pending.
        blocks = 0
        busy = 0.0
        deadline = perf() + budget
        for k, a in rates.items():
            p = self.pool[k]
            pending = p["n"]
            attempt = 0
            while pending >= 1 and perf() < deadline:
                c0 = np.full(pending, attempt, dtype=np.uint64)
                c1 = np.arange(pending, dtype=np.uint64)
                zeros = np.zeros(pending, dtype=np.uint64)
                start = perf()
                philox4x64(c0, c1, zeros, zeros, p["seed"], 0)
                busy += perf() - start
                blocks += pending
                pending = int(pending * (1.0 - a))
                attempt += 1
        out["philox.blocks_per_s"] = metric(blocks / busy if busy else 0.0, "1/s")
        return out


# --------------------------------------------------------------------- cli


class Cli(Workload):
    """One op is one fresh-process invocation of the console entry point."""

    name = "cli"
    speed = staticmethod(start_factor)
    TEXT_PATTERNS = {
        "centroid": r"^closed_form: value=\S+ support_mass=",
        "compare": r"^base: +\S+\nshifted: +\S+\ndelta: +\S+\n$",
        "verify": r"^monotonicity: checks=\d+ violations=\d+ untestable=\d+ ",
        "sample": r"^mean=\S+ std_error=\S+ n=\d+ acceptance_rate=",
        "figure": r"^wrote \S+: base=\S+ shifted=\S+\n$",
    }
    CSV_HEADERS = {
        "centroid": "method,value,support_mass,std_error,n,warnings",
        "compare": "quantity,value,support_mass,warnings",
        "verify": "check,x1,x2,h,lhs,rhs,margin",
        "sample": "mean,std_error,n,acceptance_rate,seed",
        "figure": "x,fX_masked,fY_masked",
    }

    def __init__(self, inputs: dict, job: dict) -> None:
        import os
        import subprocess

        self.subprocess = subprocess
        self.pool = inputs["ops"]
        self.entry = job["entry_code"]
        self.tmp = job["tmp_dir"]
        os.makedirs(self.tmp, exist_ok=True)

    def argv(self, k: int) -> list[str]:
        return [a.replace("{tmp}", self.tmp) for a in self.pool[k]["argv"]]

    def op(self, k: int, call):
        cmd = [sys.executable, "-c", self.entry, *self.argv(k)]
        return call(f"cli.{self.pool[k]['command']}", self.subprocess.run, cmd,
                    capture_output=True, text=True, timeout=120)

    def parse(self, k: int, stdout: str) -> str | None:
        import csv
        import io
        import re

        p = self.pool[k]
        command, fmt = p["command"], p["format"]
        if command == "figure" and fmt != "csv":
            with open(f"{self.tmp}/figure.csv", encoding="utf-8") as fh:
                if fh.readline().strip() != self.CSV_HEADERS["figure"]:
                    return "figure file lacks its CSV header"
        if fmt == "json":
            payload = json.loads(stdout)
            if payload.get("command") != command:
                return f"json payload is not a {command} result"
        elif fmt == "csv":
            rows = list(csv.reader(io.StringIO(stdout)))
            if not rows or ",".join(rows[0]) != self.CSV_HEADERS[command]:
                return f"csv header {rows[:1]!r}"
            width = len(rows[0])
            if len(rows) < 2 or any(len(r) != width for r in rows):
                return "csv rows do not match the header"
        elif not re.search(self.TEXT_PATTERNS[command], stdout):
            return f"text output {stdout[:80]!r} does not parse"
        return None

    def check(self, k: int, proc, stats: dict) -> str | None:
        if proc.returncode != 0:
            return f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"
        try:
            return self.parse(k, proc.stdout)
        except ValueError as exc:  # json.JSONDecodeError and csv.Error
            return f"output does not parse: {exc}"

    def end_to_end(self, loop: dict) -> dict:
        return {"throughput": metric(loop["work"] / loop["busy"], "1/s", of="invocations")}

    def probe_args(self, rng) -> dict:
        def value(argv, flag):
            for a in argv:
                if a.startswith(f"--{flag}="):
                    return float(a.split("=", 1)[1])
            return None

        xs, hlu, problems = [], [], []
        for p in self.pool:
            mu, sigma = value(p["argv"], "mu"), value(p["argv"], "sigma")
            if mu is None:
                continue
            lower, upper = value(p["argv"], "lower"), value(p["argv"], "upper")
            shift = value(p["argv"], "shift") or 0.0
            l, u, h = (lower - mu) / sigma, (upper - mu) / sigma, shift / sigma
            xs += [u - h, l - h]
            hlu.append((h, l, u))
            problems.append((mu, sigma, lower, upper, shift))
        return {"x": xs, "hlu": hlu, "problems": problems}

    def layer_metrics(self, tracer: Tracer, last_pass: list, rng, budget: float) -> dict:
        import contextlib
        import io

        from trunc_centroid.cli import run

        out = {}
        for command in ("centroid", "compare", "verify", "sample", "figure"):
            out[f"cli.{command}_ms"] = metric(
                1e3 * median(tracer.durations(f"cli.{command}")), "ms")
        times = []
        for k in range(len(self.pool)):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = perf()
                code = tracer.call("cli.run", run, self.argv(k))
                times.append(perf() - start)
            if code != 0:
                raise RuntimeError(f"in-process cli.run exited {code}: {sink.getvalue()[-200:]}")
        out["cli.run_ms"] = metric(1e3 * median(times), "ms")
        return out


WORKLOADS = {"sweeps": Sweeps, "oracle": Oracle, "sampling": Sampling, "cli": Cli}


# -------------------------------------------------------------- the loops


def run_op(w, k: int, call, stats: dict):
    """(duration, output, exception, problem) of one op; the check is untimed."""
    start = perf()
    try:
        out = w.op(k, call)
        err = None
    except Exception as exc:  # the loop must go on; the failure is recorded
        out, err = None, exc
    duration = perf() - start
    problem = None if err is not None else w.check(k, out, stats)
    return duration, out, err, problem


def closed_loop(w, seconds: float) -> dict:
    """Whole passes over the pool until `seconds` have passed.

    Whole passes keep the mix of inputs the same in every run.  The
    workload's speed reference runs between ops, after at least
    CALIBRATE_EVERY_S of op time; each op's time is divided by the mean
    speed factor measured just before and just after it.
    """
    stats: dict = {}
    ops = []
    raw_busy = 0.0
    failures = []
    incorrect = []
    work = 0.0
    run_op(w, 0, direct, {})  # warm-up, not counted
    before = w.speed()
    block: list = []
    start = perf()
    while True:
        for k in range(len(w.pool)):
            duration, out, err, problem = run_op(w, k, direct, stats)
            block.append((k, duration, err is None and problem is None))
            if err is not None:
                failures.append({"op": k, "error": type(err).__name__,
                                 "message": str(err)[:200],
                                 "known_defect": w.known_defect(k, err)})
            elif problem is not None:
                incorrect.append({"op": k, "problem": problem})
            else:
                work += w.work(k, out)
            if k == len(w.pool) - 1 or sum(d for _, d, _ in block) >= CALIBRATE_EVERY_S:
                after = w.speed()
                factor = 0.5 * (before + after)
                ops += [(k_, d / factor, ok) for k_, d, ok in block]
                raw_busy += sum(d for _, d, _ in block)
                before = after
                block = []
        if perf() - start >= seconds:
            break
    return {"ops": ops, "failures": failures, "incorrect": incorrect, "work": work,
            "busy": sum(d for _, d, _ in ops), "raw_busy": raw_busy, "stats": stats}


def untraced(w, job: dict) -> dict:
    loop = closed_loop(w, job["seconds"])
    # An op's latency is the median time of its input over the run's
    # passes, so one preempted op does not set a percentile.
    repeats: dict = {}
    for k, d, _ in loop["ops"]:
        repeats.setdefault(k, []).append(d)
    typical = {k: median(v) for k, v in repeats.items()}
    durations = [typical[k] for k, _, _ in loop["ops"]]
    latency_of = "op (median time of its input over the passes)"
    value, pct, n = tail(durations)
    failed = len(loop["failures"])
    attempted = len(loop["ops"])
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if w.name == "cli" else resource.RUSAGE_SELF)
    metrics = {
        **w.end_to_end(loop),
        "op_p50_ms": metric(1e3 * median(durations), "ms", ops=n, of=latency_of),
        "op_tail_ms": metric(1e3 * value, "ms", percentile=pct, ops=n, of=latency_of,
                             beyond=10 if n > 10 else 0),
        "error_rate": metric(failed / attempted, "ratio", failed=failed, attempted=attempted),
        "peak_rss_mb": metric(usage.ru_maxrss / 1024.0, "MB"),
        "speed_factor": metric(loop["raw_busy"] / loop["busy"], "ratio",
                               note="op time as measured over op time at nominal speed"),
        "raw_throughput": metric(
            w.end_to_end({**loop, "busy": loop["raw_busy"]})["throughput"]["value"], "1/s"),
    }
    known = [f for f in loop["failures"] if f["known_defect"]]
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": not loop["incorrect"] and len(known) == failed,
        "metrics": metrics,
        "failures": _summarize(loop["failures"], w),
        "incorrect": loop["incorrect"][:20],
    }


def _summarize(failures: list, w) -> list:
    seen: dict = {}
    for f in failures:
        p = w.pool[f["op"]]
        key = (p.get("family", ""), p.get("check", p.get("command", "")), f["error"])
        if key not in seen:
            seen[key] = {**f, "family": key[0], "what": key[1], "count": 0}
        seen[key]["count"] += 1
    return list(seen.values())


def probe_layers(w, args: dict, budget: float) -> dict:
    """Direct calls into special, centroid and model on the workload's arguments."""
    import trunc_centroid as tc

    out = {}
    xs = [(x,) for x in args["x"]]
    for name, fn in (("std_pdf", tc.std_pdf), ("std_tail", tc.std_tail),
                     ("std_cdf", tc.std_cdf), ("log_std_tail", tc.log_std_tail)):
        out[f"special.{name}_ns"] = metric(1e9 * per_call(fn, xs, budget), "ns")
    hlu = args["hlu"]
    out["centroid.std_exterior_centroid_us"] = metric(
        1e6 * per_call(tc.std_exterior_centroid, hlu, budget), "us")
    out["centroid.slope_certificate_us"] = metric(
        1e6 * per_call(tc.slope_certificate, [(u - h, l - h) for h, l, u in hlu], budget),
        "us")
    out["centroid.slope_us"] = metric(
        1e6 * per_call(tc.std_exterior_centroid_slope, hlu, budget), "us")

    def construct(mu, sigma, lower, upper, shift):
        tc.GaussianParams(mu, sigma)
        tc.ExcludedInterval(lower, upper)

    out["model.construct_us"] = metric(
        1e6 * per_call(construct, args["problems"], budget), "us")
    direct_p, log_p = [], []
    for prob in args["problems"]:
        r = tc.centroid_exterior(tc.GaussianParams(prob[0], prob[1]),
                                 tc.ExcludedInterval(prob[2], prob[3]), prob[4])
        (log_p if DEEP_TRUNCATION in r.warnings else direct_p).append(prob)

    def exterior(mu, sigma, lower, upper, shift):
        tc.centroid_exterior(tc.GaussianParams(mu, sigma),
                             tc.ExcludedInterval(lower, upper), shift)

    out["centroid.exterior_direct_us"] = metric(
        1e6 * per_call(exterior, direct_p, budget), "us")
    out["centroid.exterior_log_us"] = metric(1e6 * per_call(exterior, log_p, budget), "us")
    out["centroid.log_branch_ops"] = metric(len(log_p), "count")
    return out


def probe_processes(reps: int = 5) -> dict:
    """Bare interpreter start and a fresh import of the CLI module."""
    import subprocess

    starts, imports = [], []
    for _ in range(reps):
        start = perf()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        starts.append(perf() - start)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import time; t = time.perf_counter(); import trunc_centroid.cli; "
             "print(time.perf_counter() - t)"],
            check=True, capture_output=True, text=True)
        imports.append(float(proc.stdout))
    return {"cli.interpreter_start_ms": metric(1e3 * median(starts), "ms"),
            "cli.import_s": metric(median(imports), "s")}


def traced(w, job: dict) -> dict:
    """Each op untraced and traced back to back, then direct probes.

    The two forms of an op run in turn, in alternating order, so both see
    the same machine speed and their ratio needs no speed correction.
    """
    import random

    rng = random.Random(f"perfbench-probe:{job['workload']}:{job['seed']}")
    tracer = Tracer()
    stats: dict = {}
    busy = {False: 0.0, True: 0.0}
    tally = {"attempted": 0, "failed": 0, "known": 0}
    incorrect: list = []

    def one_op(k: int, spanned: bool) -> tuple:
        start = perf()
        try:
            if spanned:
                result = tracer.call("op", w.op, k, tracer.call)
            else:
                result = w.op(k, direct)
            err = None
        except Exception as exc:  # recorded like the untraced loop does
            result, err = None, exc
        busy[spanned] += perf() - start
        tally["attempted"] += 1
        if err is not None:
            tally["failed"] += 1
            tally["known"] += w.known_defect(k, err)
        else:
            problem = w.check(k, result, stats)
            if problem is not None:
                incorrect.append({"op": k, "problem": problem})
        return result, err

    run_op(w, 0, direct, {})  # warm-up
    start = perf()
    order = (False, True)
    passes = 0
    while True:
        last_pass = []
        for k in range(len(w.pool)):
            tracer.op_id = passes * len(w.pool) + k
            results = {spanned: one_op(k, spanned) for spanned in order}
            last_pass.append((k, *results[True]))
        passes += 1
        order = order[::-1]
        if perf() - start >= 0.6 * job["seconds"]:
            break
    budget = max(0.02, 0.02 * job["seconds"])
    metrics = probe_layers(w, w.probe_args(rng), budget)
    metrics.update(w.layer_metrics(tracer, last_pass, rng, budget))
    metrics.update(probe_processes())
    metrics["trace_overhead"] = metric(busy[True] / busy[False] - 1.0, "ratio")
    self_times = tracer.self_times()
    _write_spans(job, tracer, self_times)
    return {
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "correct": not incorrect and tally["known"] == tally["failed"],
        "metrics": metrics,
        "incorrect": incorrect[:20],
    }


def _write_spans(job: dict, tracer: Tracer, self_times: dict) -> None:
    import os

    os.makedirs(job["out_dir"], exist_ok=True)
    path = os.path.join(job["out_dir"], f"trace-{job['workload']}-seed{job['seed']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"],
                   "spans": tracer.spans, "self_s": self_times}, fh)


# -------------------------------------------------------------- set-up probe


def setup(workload: str) -> None:
    """Import what the workload uses and call each public function once."""
    if workload == "sweeps":
        from trunc_centroid.verification import (
            SweepSpec, verify_bounds, verify_certificate_positive, verify_derivative,
            verify_monotonicity,
        )

        spec = SweepSpec((-1.0, 1.0, 1.0), (-1.0, 1.0, 1.0), (0.0, 1.0, 1.0))
        for fn in (verify_monotonicity, verify_certificate_positive, verify_bounds,
                   verify_derivative):
            fn(spec)
    elif workload == "oracle":
        from trunc_centroid import (
            ExcludedInterval, GaussianParams, centroid_exterior, centroid_quadrature,
            shift_comparison, std_exterior_centroid_slope,
        )

        params, hole = GaussianParams(0.0, 1.0), ExcludedInterval(-1.0, 1.0)
        centroid_exterior(params, hole, 0.5)
        std_exterior_centroid_slope(0.5, -1.0, 1.0)
        shift_comparison(params, hole, 0.5)
        centroid_quadrature(params, hole, 0.5)
    elif workload == "sampling":
        from trunc_centroid import (
            ExcludedInterval, GaussianParams, monte_carlo_centroid, sample_exterior,
        )

        batch = sample_exterior(GaussianParams(0.0, 1.0), ExcludedInterval(-1.0, 1.0),
                                0.5, 100, 1)
        monte_carlo_centroid(batch)
    elif workload == "cli":
        from trunc_centroid.cli import run

        run(["centroid", "--mu=0", "--sigma=1", "--lower=-1", "--upper=1", "--shift=0.5"])
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    print("ready", flush=True)


def main() -> None:
    if sys.argv[1:2] == ["--setup"]:
        setup(sys.argv[2])
        return
    job = json.load(sys.stdin)
    cls = WORKLOADS[job["workload"]]
    w = cls(job["inputs"], job) if cls is Cli else cls(job["inputs"])
    result = traced(w, job) if job["trace"] else untraced(w, job)
    json.dump(result, sys.stdout, default=repr)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
