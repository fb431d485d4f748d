"""Benchmark of the Estelle execution system, one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload transfer --seed 1 --seconds 20 --trace 0

``--trace 0`` times fixed-work repetitions of the workload for ``--seconds``
seconds and prints every end-to-end metric; ``--trace 1`` runs all four
workloads with spans around the calls into each layer and prints the
per-layer metrics, plus the tracing overhead measured on ``--workload``.
The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
When an output check fails the result says ``"correct": false`` and the
exit code is 1.  The command exits non-zero without a result when a workload
raises, or when a process it started or a socket it opened for listening
outlives the run.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set before anything imports the program; spawned mesh workers inherit it.
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

WORKLOAD_NAMES = ("transfer", "mesh", "sessions", "http")
#: set-up is timed in this process and in this many fresh ones; the median
#: is reported.
SETUP_CHILDREN = 4
#: the step-latency percentiles a tail may be read at.
TAIL_LADDER = (0.5, 0.9, 0.95, 0.99, 0.999)


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = math.ceil(round(fraction * len(ordered), 9)) - 1
    return ordered[min(len(ordered) - 1, max(0, rank))]


def tail_fraction(samples: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it.

    Below twenty samples no percentile has; the median is reported then.
    """
    usable = [q for q in TAIL_LADDER if samples * (1 - q) >= 10 - 1e-9]
    return usable[-1] if usable else 0.5


def peak_rss_mb() -> float:
    """Largest resident set of this process and any child it waited for."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(workload, seconds: float):
    """Repeat the workload's fixed-work repetition for ``seconds``."""
    reps, problems = [], []
    deadline = time.perf_counter() + seconds
    while not reps or time.perf_counter() < deadline:
        reps.append(workload.repetition())
        problems += workload.verify()
    return reps, problems


def setup_in_child(args) -> float:
    """Set-up seconds of the workload in a fresh interpreter."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--setup-only",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


# -- teardown check ---------------------------------------------------------------


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, a child of this process.

    ``multiprocessing`` starts it on first use of a semaphore and leaves it
    running until the interpreter exits; it has no public stop call.
    """
    import gc
    from multiprocessing import resource_tracker

    # Semaphores still awaiting collection unregister through the tracker.
    gc.collect()
    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def live_children() -> list:
    """Child processes of this process that are still running."""
    import multiprocessing

    alive = [f"{p.name} (pid {p.pid})" for p in multiprocessing.active_children()]
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return alive
        if pid == 0:
            return alive or ["an untracked child process"]


def listening_sockets(servers=()) -> list:
    """Listening sockets still open in this process."""
    found = [f"server {s.server_address}" for s in servers if s.socket.fileno() != -1]
    try:
        fds = os.listdir("/proc/self/fd")
    except OSError:
        return found
    inodes = set()
    for fd in fds:
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith("socket:["):
            inodes.add(target[8:-1])
    for table in ("/proc/self/net/tcp", "/proc/self/net/tcp6"):
        try:
            lines = Path(table).read_text().splitlines()[1:]
        except OSError:
            continue
        for line in lines:
            fields = line.split()
            if fields[3] == "0A" and fields[9] in inodes:
                found.append(f"listening socket {fields[1]} (inode {fields[9]})")
    return found


def teardown_problems(servers=()) -> list:
    stop_resource_tracker()
    return [f"left running: {p}" for p in live_children()] + [
        f"left open: {s}" for s in listening_sockets(servers)
    ]


# -- runs -------------------------------------------------------------------------


def untraced_run(args, started: float, servers: list) -> dict:
    from spans import NULL_TRACER
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, NULL_TRACER)
    servers += getattr(workload, "servers", [])
    try:
        workload.setup()
        setup_samples = [time.perf_counter() - started]
        reps, problems = measure(workload, args.seconds)
        rss = peak_rss_mb()
        problems += workload.finish()
    finally:
        workload.teardown()
    setup_samples += [setup_in_child(args) for _ in range(SETUP_CHILDREN)]
    # The tail percentile depends only on the steps in one repetition, which
    # is fixed work, so it is the same in every run of a workload.
    tails = [tail_fraction(len(rep.steps)) for rep in reps]
    print(
        f"{args.workload}: {len(reps)} repetitions of "
        f"{min(len(r.steps) for r in reps)}-{max(len(r.steps) for r in reps)} steps, "
        f"step_tail_ms is p{min(tails) * 100:g}",
        file=sys.stderr,
    )
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "firings_per_s": (statistics.median(r.firings / r.seconds for r in reps), "1/s"),
        "sessions_per_s": (statistics.median(r.sessions / r.seconds for r in reps), "1/s"),
        "step_p50_ms": (statistics.median(percentile(r.steps, 0.5) for r in reps) * 1e3, "ms"),
        "step_tail_ms": (
            statistics.median(percentile(r.steps, q) for r, q in zip(reps, tails)) * 1e3,
            "ms",
        ),
        "peak_rss_mb": (rss, "MiB"),
    }
    return {
        "correct": not problems,
        "attempted": sum(rep.sessions for rep in reps),
        "failed": 0,
        "metrics": metrics,
    }


def traced_run(args, servers: list) -> dict:
    """Every workload with spans; the overhead is measured on --workload."""
    from spans import NULL_TRACER, Tracer, instrument, program_targets
    from workloads import WORKLOADS

    layers, problems = {}, []
    attempted = 0
    overhead = None
    share = args.seconds / len(WORKLOAD_NAMES)
    for name in WORKLOAD_NAMES:
        tracer = Tracer()
        workload = WORKLOADS[name](args.seed, tracer)
        servers += getattr(workload, "servers", [])
        traced, untraced = [], []
        try:
            with instrument(tracer, program_targets()):
                workload.setup()
            deadline = time.perf_counter() + share
            while not traced or time.perf_counter() < deadline:
                with instrument(tracer, program_targets()):
                    traced.append(workload.repetition())
                problems += workload.verify()
                if name == args.workload:
                    workload.tracer = NULL_TRACER
                    untraced.append(workload.repetition())
                    problems += workload.verify()
                    workload.tracer = tracer
            problems += workload.finish()
        finally:
            workload.teardown()
        attempted += sum(rep.sessions for rep in traced + untraced)
        layers.update(workload.layer_metrics(tracer))
        if untraced:
            ratio = statistics.median(r.seconds for r in traced) / statistics.median(
                r.seconds for r in untraced
            )
            overhead = (ratio - 1) * 100
        tracer.dump(HERE / "out" / f"spans-{name}-seed{args.seed}.jsonl")
    layers["mesh.overhead_us"] = (
        layers["mesh.round_us"][0] - layers["executor.round_us"][0],
        "us",
    )
    layers["trace.overhead_pct"] = (overhead, "%")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": 0,
        "metrics": layers,
        "problems": problems,
    }


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        from spans import NULL_TRACER
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.seed, NULL_TRACER)
        try:
            workload.setup()
            setup_s = time.perf_counter() - started
        finally:
            workload.teardown()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    servers: list = []
    try:
        if args.trace:
            result = traced_run(args, servers)
        else:
            result = untraced_run(args, started, servers)
    finally:
        leftovers = teardown_problems(servers)
        for problem in leftovers:
            print(problem, file=sys.stderr)
    if leftovers:
        return 1
    for problem in result.pop("problems", [])[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
