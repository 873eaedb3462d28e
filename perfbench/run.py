"""Benchmark of the itlc toolkit: one workload, one seed, one run.

    python3 perfbench/run.py --workload decide-random --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The program is imported from
``src/`` into this process and driven by one closed-loop client: each
operation starts after the previous one returns.  Set-up (importing
``itlc`` and building the inputs from the seed) runs SETUP_REPEATS times
and is reported as its median.  A timed pass runs every operation once;
passes repeat while the next one is expected to end within --seconds.
Times are reported at reference speed (see timed_passes), and wall_s is
the sum over operations of each one's median over the passes.  With
--trace 1 the run makes one untraced pass, then traced passes, and reports
per-layer self times and counts instead.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

from layers import METRICS, PRIVATE_SEAMS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
LATENCY_MIN_SAMPLES = 100
# The host's speed can change by half within seconds, so times are also
# reported at reference speed: the reference loop's median time on the
# 2-core box the benchmark was made on (Python 3.11) is REFERENCE_S.
REFERENCE_ITERATIONS = 20_000
REFERENCE_S = 0.0019
TICK_S = 0.2
COLLECT_AFTER_S = 0.01

# End-to-end metrics in the JSON line, as BENCHMARK.json lists them.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
              ("peak_rss_mb", "MB"))


class Crash:
    """An operation that raised; compares equal to nothing."""

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:
        return self.text.strip().splitlines()[-1]


def load_itlc():
    """Import itlc afresh from the checkout's src directory."""
    for name in [n for n in sys.modules if n == "itlc" or n.startswith("itlc.")]:
        del sys.modules[name]
    itlc = importlib.import_module("itlc")
    importlib.import_module("itlc.cli")
    return itlc


def reference_loop() -> float:
    """Seconds one run of a fixed pure-Python loop takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


class Pass:
    """One timed pass: per operation its raw time, its time at reference
    speed, and the digest of its result."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.digests: list = []


def measure(op, tick: float):
    """Run one operation; returns (result, raw seconds, reference loop after).

    While it runs, a timer signal runs the reference loop every `tick`
    seconds (never when 0); the caller subtracts those loops' time from the
    operation's time.
    """
    signal.setitimer(signal.ITIMER_REAL, tick, tick)
    start = time.perf_counter()
    try:
        result = op()
    except Exception:  # a crashing operation is counted, not fatal
        result = Crash(traceback.format_exc())
    finally:
        took = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return result, took, reference_loop()


def timed_passes(workload, seconds: float, tracer=None, most: int | None = None,
                 tick: float = TICK_S):
    """Run passes over the operations; returns a list of Pass.

    The host's speed is sampled with the reference loop before the first
    operation, after each one, and every `tick` seconds during one.  An operation's
    time at reference speed is its time times REFERENCE_S over the mean of
    the samples taken around and during it.  Each result is reduced to its
    digest right after its operation, outside the operation's time, so no
    pass holds on to earlier results.  A further pass starts only while the
    time spent so far plus the last pass's time stays within `seconds`;
    there is always at least one.
    """
    ticks: list[float] = []
    signal.signal(signal.SIGALRM, lambda signum, frame: ticks.append(reference_loop()))
    passes = []
    begin = time.perf_counter()
    while True:
        started = time.perf_counter()
        this = Pass()
        before = reference_loop()
        for i, op in enumerate(workload.ops):
            if tracer is not None:
                tracer.op = i
            ticks.clear()
            result, took, after = measure(op, tick)
            speed = [before, *ticks, after]
            took -= sum(ticks)
            this.raw.append(took)
            this.scaled.append(took * REFERENCE_S * len(speed) / sum(speed))
            before = after
            this.digests.append(result if isinstance(result, Crash)
                                else workload.digest(i, result))
            # free a large operation's cyclic garbage before the next one
            # starts, so peak memory is that of the largest operation,
            # whatever the order
            del result
            if took > COLLECT_AFTER_S:
                gc.collect()
        passes.append(this)
        now = time.perf_counter()
        if now - begin + (now - started) > seconds or (most and len(passes) >= most):
            return passes


def line(name: str, value, unit: str, note: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<30} {text:>12} {unit:<6} {note}".rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a handful of fast operations (smoke test)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "itlc" / "__init__.py").is_file():
        print(f"error: no itlc sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    setups, setups_raw = [], []
    for _ in range(SETUP_REPEATS):
        before = reference_loop()
        start = time.perf_counter()
        itlc = load_itlc()
        workload = WORKLOADS[args.workload](itlc, args.seed, args.size == "tiny")
        took = time.perf_counter() - start
        setups_raw.append(took)
        setups.append(took * 2 * REFERENCE_S / (before + reference_loop()))
    if Path(itlc.__file__).resolve().parent != src / "itlc":
        print(f"error: imported itlc from {itlc.__file__}, not {src}", file=sys.stderr)
        return 2
    ops = workload.ops

    tracer = None
    if args.trace:
        # no speed samples inside spans, so self times stay raw, and none in
        # the untraced pass either, so both sides are scaled alike
        untraced = timed_passes(workload, 0.0, most=1, tick=0)
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_passes(workload, args.seconds - sum(untraced[0].raw), tracer,
                                  tick=0)
        finally:
            tracer.uninstall()
        passes = untraced + traced
    else:
        passes = timed_passes(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # output checks, outside set-up and timing
    first = passes[0].digests
    problems = {}
    for i, d in enumerate(first):
        if isinstance(d, Crash):
            problems[i] = f"crashed: {d!r}"
            continue
        try:
            reason = workload.check(i, d)
        except Exception:
            reason = f"check crashed: {traceback.format_exc().strip().splitlines()[-1]}"
        if reason:
            problems[i] = reason
    failed = len(problems) * len(passes)
    for k, later in enumerate(passes[1:], start=2):
        for i, d in enumerate(later.digests):
            if i not in problems and d != first[i]:
                failed += 1
                print(f"  error: pass {k} differs from pass 1 on {workload.labels[i]!r}")
    for i, reason in sorted(problems.items()):
        print(f"  error: {workload.labels[i]!r}: {reason}")
    attempted = len(ops) * len(passes)

    walls = [sum(p.raw) for p in passes]
    print(f"{args.workload}: seed {args.seed}, {len(ops)} operations per pass, "
          f"{len(passes)} passes{' (first untraced)' if tracer else ''}")
    if tracer is None:
        # at reference speed: each operation's median over the passes
        wall = sum(statistics.median(p.scaled[i] for p in passes) for i in range(len(ops)))
        metrics = {"setup_s": statistics.median(setups), "wall_s": wall,
                   "ops_per_s": len(ops) / wall, "peak_rss_mb": peak_rss_mb}
        units = dict(END_TO_END)
        line("setup_s", metrics["setup_s"], "s", f"median of {SETUP_REPEATS} set-ups")
        line("wall_s", wall, "s", f"one pass; per operation the median of {len(passes)}")
        line("ops_per_s", metrics["ops_per_s"], "1/s")
        line("peak_rss_mb", peak_rss_mb, "MB")
        samples = [t for p in passes for t in p.scaled]
        if len(samples) >= LATENCY_MIN_SAMPLES:
            tenths = statistics.quantiles(samples, n=10)
            line("op_p50_ms", tenths[4] * 1e3, "ms", f"{len(samples)} samples")
            line("op_p90_ms", tenths[8] * 1e3, "ms", f"{len(samples)} samples")
        else:
            print(f"  op_p50_ms, op_p90_ms: not reported, {len(samples)} samples "
                  f"< {LATENCY_MIN_SAMPLES}")
        if workload.decide:
            line("decided_share", sum(map(workload.decided, first)) / len(ops), "ratio")
            line("cert_worlds_total", sum(map(workload.cert_worlds, first)), "count",
                 "per pass")
        print("  at the host's own speed, not gated:")
        line("setup_raw_s", statistics.median(setups_raw), "s")
        line("wall_raw_s", statistics.median(walls), "s", "median pass")
        line("reference_ms", statistics.median(reference_loop() for _ in range(9)) * 1e3,
             "ms", f"reference loop; {REFERENCE_S * 1e3:g} ms is reference speed")
    else:
        traced_s = [sum(p.scaled) for p in passes[1:]]
        metrics = tracer.metrics(len(passes) - 1, statistics.mean(walls[1:]),
                                 statistics.median(traced_s) - sum(passes[0].scaled))
        units = dict(METRICS)
        for name, unit in METRICS:
            line(name, metrics[name], unit)
        for seam in tracer.missing:
            print(f"  missing seam: {seam} (reported as -1)")
        print(f"  private seams wrapped: {', '.join(PRIVATE_SEAMS)}")
    line("error_share", failed / attempted, "ratio", f"{failed} of {attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
