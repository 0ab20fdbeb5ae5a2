"""Benchmark of trunc-centroid: one workload, one seed, one run.

    python3 perfbench/run.py --workload {sweeps,oracle,sampling,cli}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a checkout.  It builds the workload's inputs from
the seed (and, for oracle, mpmath references), times the set-up of a fresh
interpreter, then starts worker.py, which imports trunc_centroid from
src/ and runs the workload's ops in a closed loop for S seconds.  With
--trace 1 the worker instead alternates untraced and traced passes and
times direct calls into each layer.

It prints a report line (machine, every metric with its unit, failures)
and then, as the last line, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end-to-end metrics of BENCHMARK.json (--trace 0)
or its per-layer metrics (--trace 1).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import inputs
from worker import median, start_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREADS_ENV_VAR = "TRUNC_CENTROID_THREADS"
SETUP_REPS = 9
DEADLINE_S = 170.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; below 1 only for smoke tests")
    return parser.parse_args(argv)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(1)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != THREADS_ENV_VAR}
    env["PYTHONPATH"] = str(ROOT / "src")
    # Fixed string hashing, so dict and set layouts repeat from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def entry_code() -> str:
    """`python -c` code calling the console script named in pyproject.toml."""
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["trunc-centroid"]
    module, func = target.split(":")
    return f"from {module} import {func}; {func}()"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "not installed"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "git_commit": git_commit(),
        THREADS_ENV_VAR: "unset in every measured process"
        + (" (removed from the caller's environment)" if THREADS_ENV_VAR in os.environ else ""),
    }


def time_setup(workload: str, env: dict) -> float:
    """Seconds from spawning a fresh interpreter to its first result."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--setup", workload],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
    )
    try:
        for line in proc.stdout:
            if line.strip() == "ready":
                break
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        fail(f"set-up probe for {workload} exited with {proc.returncode}")
    return elapsed


def run_worker(job: dict, env: dict, timeout: float) -> dict:
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
    )
    try:
        stdout, _ = proc.communicate(json.dumps(job), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        fail(f"worker exited with {proc.returncode}")
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        fail("worker printed no result")


def main(argv=None) -> None:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "trunc_centroid" / "__init__.py").is_file():
        fail(f"no trunc_centroid package under {ROOT / 'src'}; run from a full checkout")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    env = child_env()
    job = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": inputs.build(args.workload, args.seed, args.scale),
        "entry_code": entry_code(),
        "out_dir": str(HERE / "out"),
        "tmp_dir": str(HERE / "out" / f"tmp-{os.getpid()}"),
    }
    # Set-up is spawning and importing, so a bare interpreter start is its
    # speed reference (see worker.start_factor).
    setup_raw, setup_times = [], []
    for _ in range(0 if args.trace else SETUP_REPS):
        before = start_factor()
        elapsed = time_setup(args.workload, env)
        setup_raw.append(elapsed)
        setup_times.append(elapsed / (0.5 * (before + start_factor())))
    remaining = DEADLINE_S - (time.perf_counter() - started)
    try:
        result = run_worker(job, env, remaining)
    finally:
        tmp = Path(job["tmp_dir"])
        if tmp.is_dir():
            for f in tmp.iterdir():
                f.unlink()
            tmp.rmdir()

    metrics = result["metrics"]
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
    else:
        metrics["setup_s"] = {"value": median(setup_times), "unit": "s",
                              "runs": setup_times, "raw_runs": setup_raw}
        names = [m["name"] for m in spec["end_to_end"]]
    # A layer the workload never reaches reports 0 (see README.md).
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    final = {n: {"value": metrics[n]["value"] if n in metrics else 0, "unit": units[n]}
             for n in names}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "metrics": metrics,
        "not_reached": sorted(set(names) - set(metrics)),
        "failures": result.get("failures", []),
        "incorrect": result.get("incorrect", []),
    }
    print(json.dumps(report, default=repr))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": final,
    }))


if __name__ == "__main__":
    main()
