"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of an iotbed checkout: it imports iotbed from
``src/`` there and refuses to run without it.  One process, one thread, a
closed loop: one set-up and one untimed warm-up iteration, then timed
iterations back to back for ``--seconds`` (and at least 3 times), with
set-up timed again ten times across that loop.  Every iteration's outputs
are checked outside the timed region.  End-to-end times are reported in
nominal-host seconds (see REFERENCE_NOMINAL_S).

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run spends half its time
untraced and half traced, and reports the per-layer metrics plus the
tracing overhead.  A human-readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from time import perf_counter

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 10             # spread over the timed loop
MIN_TIMED = 3                   # timed iterations, even past --seconds
MIN_TRACED = 2

# Host speed.  On a shared 2-vCPU x86-64 host the same Python code ran up
# to 2x slower for spells of tens of seconds, with CPU time tracking wall
# time: the CPU slowed, not the scheduling.  Medians of 35 s runs spread
# by 12-27% between runs.  So after every
# iteration the run times a fixed pure-Python reference computation that
# runs no iotbed code, for about REFERENCE_SHARE of the iteration's time,
# and reports end-to-end times in nominal-host seconds: the measured median
# times REFERENCE_NOMINAL_S over the median reference time.  The ratio
# cancels the host's speed but not a change in iotbed's own cost.
REFERENCE_NOMINAL_S = 0.008
REFERENCE_SHARE = 0.05


def reference_chunk() -> float:
    """Host time of one fixed pure-Python computation; runs no iotbed.

    It sorts tuples by key, filters them with list comprehensions and
    counts labels into a dict for an entropy, the interpreter work all
    three workloads share; on that host it tracked their slow spells more
    closely than string- or heap-heavy variants did.
    """
    rng = random.Random(4)
    t0 = perf_counter()
    rows = [(tuple(rng.gauss(0.0, 1.0) for _ in range(6)), rng.choice("abcd"))
            for _ in range(300)]
    best = 0.0
    for f in range(6):
        ordered = sorted(rows, key=lambda r: r[0][f])
        for i in range(0, 300, 5):
            threshold = ordered[i][0][f]
            left = [y for x, y in ordered if x[f] < threshold] or ["a"]
            counts: dict[str, int] = {}
            for y in left:
                counts[y] = counts.get(y, 0) + 1
            n = len(left)
            best = max(best, -sum(c / n * math.log2(c / n)
                                  for c in counts.values()))
    return perf_counter() - t0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input size; tiny is for the smoke test")
    return p.parse_args(argv)


class Run:
    """One workload run: set-ups, iterations, failures and digests."""

    def __init__(self, workload, seed: int, scale: str, work_dir: str):
        self.wl = workload
        self.seed = seed
        self.size = workload.sizes[scale]
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[tuple[str, ...]] = set()
        self.outcomes = []
        self.reference: list[float] = []
        self._n_dirs = 0

    def _new_dir(self, stem: str) -> str:
        self._n_dirs += 1
        path = os.path.join(self.work_dir, f"{stem}{self._n_dirs}")
        os.makedirs(path)
        return path

    def setup(self, keep: bool = True):
        work = self._new_dir("in")
        t0 = perf_counter()
        ctx = self.wl.setup(work, self.seed, self.size)
        dt = perf_counter() - t0
        if not keep:
            shutil.rmtree(work, ignore_errors=True)
        return ctx, dt

    def iterate(self, ctx, tracer=None) -> float | None:
        """One iteration; returns its wall time, or None if it crashed.

        An iteration whose outputs fail a check still returns its time,
        and is counted in `failed`.
        """
        self.attempted += 1
        out = self._new_dir("out")
        try:
            if tracer is not None:
                tracer.active = True
            t0 = perf_counter()
            try:
                result = self.wl.run(ctx, out)
            finally:
                dt = perf_counter() - t0
                if tracer is not None:
                    tracer.active = False
                    tracer.end_iteration()
            outcome = self.wl.check(ctx, out, result)
        except Exception:  # an iteration's crash is a failed operation
            self.failed += 1
            self.problems.append(traceback.format_exc())
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
            # Free this iteration's reference cycles now, so the next one
            # starts from the same heap and peak RSS is one iteration's.
            gc.collect()
        self.digests.add(outcome.digests)
        self.outcomes.append(outcome)
        if outcome.problems:
            self.failed += 1
            self.problems.extend(outcome.problems)
        return dt

    def loop(self, ctx, seconds: float, minimum: int, tracer=None,
             between=None):
        """Iterate for `seconds` (and `minimum` times); calls `between`
        with the loop's start time after every iteration."""
        walls = []
        start = perf_counter()
        for n in itertools.count(1):
            dt = self.iterate(ctx, tracer)
            if dt is not None:
                walls.append(dt)
            self.sample_host(REFERENCE_SHARE * (dt or 0.0))
            if between is not None:
                between(start)
            if n >= minimum and perf_counter() >= start + seconds:
                return walls

    def sample_host(self, seconds: float) -> None:
        """Time reference chunks for about `seconds` (at least one)."""
        spent = 0.0
        while not spent or spent < seconds:
            self.reference.append(reference_chunk())
            spent += self.reference[-1]

    @property
    def host_scale(self) -> float:
        """Factor from this run's host seconds to nominal-host seconds."""
        return REFERENCE_NOMINAL_S / statistics.median(self.reference)

    def final_checks(self) -> None:
        if len(self.digests) > 1:
            self.problems.append(
                f"output digests differ across iterations: {self.digests}")
        if len({o.quality for o in self.outcomes}) > 1:
            self.problems.append("quality ratio differs across iterations")


def percentile_note(walls: list[float]) -> str:
    """Median plus the highest percentile with >= 10 samples beyond it."""
    n = len(walls)
    text = f"n={n} median={statistics.median(walls):.4f}s"
    top = int(100 * (1 - 10 / n)) if n >= 20 else 0
    if top > 50:
        qs = statistics.quantiles(walls, n=100, method="inclusive")
        text += f" p{top}={qs[top - 1]:.4f}s"
    else:
        text += " (too few samples for a tail percentile)"
    return text


def end_to_end(run: Run, setup_times, walls) -> dict:
    scale = run.host_scale
    wall = statistics.median(walls) * scale
    o = run.outcomes[-1]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setup_times) * scale, "s"),
        "wall_s": (wall, "s"),
        "records_per_s": (o.records / wall, "records/s"),
        "sessions_per_s": (o.sessions / wall, "sessions/s"),
        "peak_rss_mb": (rss_mib, "MiB"),
        "holdout_accuracy": (o.quality, "ratio"),
    }


def measure(workload, seed: int, seconds: float, trace: bool, scale: str,
            work_dir: str) -> tuple[Run, dict]:
    run = Run(workload, seed, scale, work_dir)
    ctx, first_setup = run.setup()
    setup_times = [first_setup]
    run.iterate(ctx)                                   # warm-up, untimed
    budget = seconds / 2 if trace else seconds

    def repeat_setup(start: float) -> None:
        # Repeating set-up across the whole loop, not back to back, lets
        # its median see the same spells of host slowness as wall_s.
        due = start + budget * len(setup_times) / SETUP_REPEATS
        if len(setup_times) < SETUP_REPEATS and perf_counter() >= due:
            setup_times.append(run.setup(keep=False)[1])

    walls = run.loop(ctx, budget, MIN_TIMED, between=repeat_setup)
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(run.setup(keep=False)[1])
    if not walls:
        run.final_checks()
        return run, {}
    print(f"{workload.name}: host seconds: wall {percentile_note(walls)}, "
          f"set-up median {statistics.median(setup_times):.4f}s; host scale "
          f"{run.host_scale:.4f} over {len(run.reference)} reference "
          f"samples", file=sys.stderr)
    if not trace:
        run.final_checks()
        return run, end_to_end(run, setup_times, walls)

    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        ctx, traced_setup = run.setup()
        tracer.active = False
        setup_rec = tracer.take()
        traced = run.loop(ctx, budget, MIN_TRACED, tracer)
        rec = tracer.take()
    finally:
        tracer.uninstall()
    run.final_checks()
    if not traced:
        return run, {}
    n = len(traced)
    traced_wall = sum(traced) / n
    untraced_wall = sum(walls) / len(walls)
    self_total = sum(rec.self_s.values()) / n
    unattributed = traced_wall - self_total
    if unattributed < 0:
        run.problems.append(f"span self times exceed wall by "
                            f"{-unattributed:.6f}s")
    bench = {
        "bench.iterations": n,
        "bench.untraced_wall_s": untraced_wall,
        "bench.traced_wall_s": traced_wall,
        "bench.trace_overhead_frac": traced_wall / untraced_wall - 1,
        "bench.self_total_s": self_total,
        "bench.unattributed_s": unattributed,
        "bench.traced_setup_s": traced_setup,
        "bench.host_scale": run.host_scale,
    }
    metrics = tracing.layer_metrics(rec, setup_rec, n, bench)
    print(f"{workload.name}: traced {n} iterations, self "
          f"{self_total:.4f}s + unattributed {unattributed:.4f}s = wall "
          f"{traced_wall:.4f}s, overhead "
          f"{bench['bench.trace_overhead_frac']:+.1%}", file=sys.stderr)
    for name in sorted(rec.self_s, key=rec.self_s.get, reverse=True):
        print(f"  {name:<34} calls {rec.calls[name] / n:>10.0f}  incl "
              f"{rec.incl[name] / n:8.4f}s  self {rec.self_s[name] / n:8.4f}s",
              file=sys.stderr)
    return run, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "iotbed", "__init__.py")):
        print(f"error: no iotbed sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.pop("IOTBED_CONFIG", None)     # iotbed's defaults only
    import iotbed
    if not os.path.abspath(iotbed.__file__).startswith(SRC + os.sep):
        print(f"error: iotbed imported from {iotbed.__file__}",
              file=sys.stderr)
        return 2
    import workloads
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        run, metrics = measure(workload, args.seed, args.seconds,
                               bool(args.trace), args.scale, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)           # only if no other run uses it
        except OSError:
            pass
    if not metrics:
        print("error: no iteration succeeded", file=sys.stderr)
    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"{args.workload}: fail_frac {run.failed}/{run.attempted} = "
          f"{run.failed / run.attempted:.4f}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
