"""Closed-loop benchmark of bdr: one client, one process, seeded inputs.

    python3 perfbench/run.py --workload low-witness --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root.  Set-up generates the workload's inputs from
``--seed``; the loop then runs the workload's prelude once and a number of
whole passes over its operations that fills about ``--seconds``, and checks
every output.  The last line of stdout is one JSON object: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  ``--smoke`` runs every workload once at tiny sizes, with
the same checks and no timing gate, and exits non-zero if any output is
wrong.

The host's other tenants slow this machine by up to a half, in bursts of
a millisecond or so whose density changes over seconds to minutes, and
raw wall times of the same code spread by a fifth to a third between runs.
So an untraced run times a fixed probe (a recursive Fibonacci number, no
allocation) right before and right after each operation and set-up round,
and every PROBE_EVERY_S of CPU time during it (SIGPROF).  The samples taken
during a span are subtracted from its wall time; the rest is divided by
the mean of the span's own samples and multiplied by PROBE_QUIET_S.  The
time metrics are thus each span's cost in probe runs, stated in seconds
on the reference VM at its quietest.  The probe runs none of bdr, so a
change to bdr moves them as it moves wall time.  A timeout counts at its
deadline, unscaled.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import types
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import tracing
import workloads
from workloads import BUDGET, DISAGREE, PENDING_ORACLE, TIMEOUT, CliResult, Op

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
MODULES = ("cli", "core", "decider", "errors", "gale_ryser", "oracle", "partition",
           "reduction")
# Well above the slowest passing operation (a lift at r = 9/20, 1.0-2.0 s
# untraced); the stall in exact-search hits it.
DEADLINE_S = 6.0
SMOKE_DEADLINE_S = 2.0
SETUP_ROUNDS = 11
PROBE_FIB = 15
# the fastest a probe runs on the reference VM (2-vCPU 2.1 GHz, Python 3.11):
# 71 us at the minimum, 77 us at the 5th percentile
PROBE_QUIET_S = 75e-6
# a sample every 10 ms of CPU time adds under 1% to a long operation, and is
# not counted in it
PROBE_EVERY_S = 0.01
PROBE_AROUND = 3  # samples right before and right after each span
# Whole passes over the workload's cycle that fill a run of about
# REFERENCE_S seconds on a 2-vCPU 2.1 GHz VM (exact-search's one pass takes
# 35-50 s of wall time); --seconds scales them.  The count depends
# on --seconds only, never on measured speed, so a run's set of operations
# is fixed.
REFERENCE_S = 25
PASSES = {"low-witness": 4, "exact-search": 1, "reduction": 2}
TAIL_BEYOND = 10


class OpTimeout(BaseException):
    """Raised by the deadline alarm; not an Exception, so bdr cannot catch it."""


def _alarm(signum, frame):
    raise OpTimeout()


@dataclass
class Result:
    op: Op
    seconds: float  # scaled to the quiet host (HostProbe.timed)
    reason: str | None  # None for a passing operation
    stdout_bytes: int = 0


def _fib(n: int) -> int:
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


class HostProbe:
    """Times a fixed probe around and during spans: the host's speed."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.samples: list[float] = []
        if enabled:
            signal.signal(signal.SIGPROF, lambda signum, frame: self.sample())

    def sample(self) -> None:
        start = perf_counter()
        _fib(PROBE_FIB)
        self.samples.append(perf_counter() - start)

    def start(self) -> int:
        """Sample, then sample every PROBE_EVERY_S of CPU time until stop."""
        if not self.enabled:
            return 0
        for _ in range(PROBE_AROUND):
            self.sample()
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        return len(self.samples)

    def stop(self, mark: int) -> tuple[float, float | None]:
        """Seconds sampled since ``mark``, and the mean of the samples from
        those before ``mark`` to those taken now."""
        if not self.enabled:
            return 0.0, None
        signal.setitimer(signal.ITIMER_PROF, 0)
        during = sum(self.samples[mark:])
        for _ in range(PROBE_AROUND):
            self.sample()
        return during, statistics.fmean(self.samples[mark - PROBE_AROUND:])

    def timed(self, fn):
        """``fn()``, the seconds it took scaled to the quiet host, and its
        wall time; unprobed, both times are wall time."""
        mark = self.start()
        start = perf_counter()
        try:
            value = fn()
        finally:
            took = perf_counter() - start
            during, probe_s = self.stop(mark)
        if probe_s is None:
            return value, took, took
        return value, (took - during) * PROBE_QUIET_S / probe_s, took


def load_bdr() -> types.SimpleNamespace:
    """Import bdr from this checkout's src/, afresh."""
    for name in [m for m in sys.modules if m == "bdr" or m.startswith("bdr.")]:
        del sys.modules[name]
    lib = types.SimpleNamespace(**{m: importlib.import_module(f"bdr.{m}") for m in MODULES})
    if os.path.dirname(os.path.abspath(lib.cli.__file__)) != os.path.join(SRC, "bdr"):
        raise ImportError(f"bdr imported from {lib.cli.__file__}, not from {SRC}")
    return lib


def set_up(workload: str, seed: int, workdir: str, smoke: bool):
    """Import bdr afresh and write the workload's inputs.

    Every round of a run writes the same files into the same directory, so
    later rounds rewrite them in place rather than churn the file system.
    """
    lib = load_bdr()
    os.makedirs(workdir, exist_ok=True)
    prelude, cycle = workloads.WORKLOADS[workload](
        lib, random.Random(f"{workload}/{seed}"), workdir, smoke)
    return lib, prelude, cycle


def remove_workdir(workdir: str) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(workdir))
    except OSError:  # another run still uses it
        pass


def with_deadline(fn, deadline: float):
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def execute(op: Op, deadline: float, probe: HostProbe) -> Result:
    def call():
        try:
            return with_deadline(op.call, deadline), None
        except OpTimeout:
            return None, TIMEOUT
        except Exception as exc:  # a raising operation is a failed operation
            return None, f"error: {type(exc).__name__}: {exc}"

    (value, reason), seconds, wall = probe.timed(call)
    if reason == TIMEOUT:  # counts at its deadline, unscaled
        return Result(op, wall, reason)
    if reason is None:
        try:
            reason = op.check(value)
        except Exception as exc:  # malformed output fails its check
            reason = f"check: {type(exc).__name__}: {exc}"
    size = len(value.out) if isinstance(value, CliResult) else 0
    return Result(op, seconds, reason, size)


def run_loop(prelude: list[Op], cycle: list[Op], passes: int, deadline: float,
             probe: HostProbe, between=None) -> list[Result]:
    """Closed loop: the next operation starts when the previous one ends.

    The prelude runs once, then ``passes`` whole passes over ``cycle``, so
    every run of a workload measures the same operations.  ``between``, if
    given, is called after each of SETUP_ROUNDS - 1 equal slices of that
    schedule.
    """
    schedule = prelude + cycle * passes
    slices = 1 if between is None else SETUP_ROUNDS - 1
    step = len(schedule) / slices
    results = []
    for k in range(slices):
        for op in schedule[round(k * step):round((k + 1) * step)]:
            results.append(execute(op, deadline, probe))
        if between is not None:
            between()
    return results


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(PASSES[workload] * seconds / REFERENCE_S))


def confirm_not_bipartite(lib, results: list[Result], deadline: float) -> None:
    """Cross-check NotBipartite verdicts against the count-vector oracle."""
    verdicts: dict[tuple[int, ...], str | None] = {}
    for r in results:
        if r.reason != PENDING_ORACLE:
            continue
        if r.op.degrees not in verdicts:
            ds = lib.core.DegreeSequence(r.op.degrees)
            try:
                found = with_deadline(
                    lambda: lib.oracle.brute_force_bipartite_realizable(ds), deadline)
                verdicts[r.op.degrees] = (
                    "check: NotBipartite, but the oracle finds a realization" if found else None)
            except OpTimeout:
                verdicts[r.op.degrees] = "check: NotBipartite, oracle timed out"
        r.reason = verdicts[r.op.degrees]


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return max(times), 100.0
    return sorted(times)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def timing(results: list[Result]) -> dict[str, tuple[float, str]]:
    times = [r.seconds for r in results]
    ok = sum(r.reason is None for r in results)
    return {
        "ops_per_s": (ok / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (tail(times)[0] * 1e3, "ms"),
        "ok_ratio": (ok / len(results), "ratio"),
    }


def end_to_end(results: list[Result], setup_s: float) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (setup_s, "s"),
        **timing(results),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(lib, prelude: list[Op], cycle: list[Op], passes: int, deadline: float,
           probe: HostProbe):
    """Half the passes untraced, then the same schedule traced."""
    plain = run_loop(prelude, cycle, passes, deadline, probe)
    tracer = tracing.Tracer()
    tracer.install(lib)
    try:
        spans = run_loop(prelude, cycle, passes, deadline, probe)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(len(spans))
    metrics["cli.stdout_bytes"] = (sum(r.stdout_bytes for r in spans) / len(spans), "B/op")
    return plain, spans, metrics


def overhead(plain: list[Result], spans: list[Result]) -> dict[str, tuple[float, str]]:
    """End-to-end numbers of both halves, and the traced/untraced time ratio
    on the operations both halves ran to completion."""
    pairs = [(a.seconds, b.seconds) for a, b in zip(plain, spans)
             if TIMEOUT not in (a.reason, b.reason)]
    metrics = {"trace.overhead_ratio": (
        sum(b for _, b in pairs) / sum(a for a, _ in pairs) if pairs else 1.0, "ratio")}
    for name, half in (("untraced", plain), ("traced", spans)):
        for metric in ("ops_per_s", "op_p50_ms"):
            metrics[f"{name}.{metric}"] = timing(half)[metric]
    return metrics


def known_disagreements() -> set[str]:
    with open(os.path.join(HERE, "workloads.json")) as fh:
        notes = json.load(fh)
    return {f["label"] for w in notes["workloads"].values() for f in w["known_failures"]
            if f["reason"] == DISAGREE}


def unexpected(results: list[Result]) -> list[Result]:
    """Failures that are wrong outputs, not budget, deadline or a recorded
    reduction disagreement."""
    allowed = known_disagreements()
    return [r for r in results if r.reason not in (None, BUDGET, TIMEOUT)
            and not (r.reason == DISAGREE and r.op.label in allowed)]


def report_failures(results: list[Result]) -> None:
    by_reason = defaultdict(lambda: defaultdict(int))
    for r in results:
        if r.reason is not None:
            by_reason[r.reason][r.op.label] += 1
    for reason, labels in sorted(by_reason.items()):
        listed = ", ".join(f"{label} x{count}" for label, count in sorted(labels.items()))
        print(f"failed [{reason}] {sum(labels.values())}: {listed}")


def expected_metrics(kind: str) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def benchmark(args) -> int:
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        # the traced run times raw wall time: its spans would count the probe
        probe = HostProbe(enabled=not args.trace)
        (lib, prelude, cycle), first_setup_s, _ = probe.timed(
            lambda: set_up(args.workload, args.seed, workdir, False))
        # the other set-up rounds are spread over the run, so that setup_s
        # samples the machine at the same moments as the operations do
        setup_s = [first_setup_s]

        def set_up_again():
            setup_s.append(probe.timed(
                lambda: set_up(args.workload, args.seed, workdir, False))[1])

        if args.trace:
            plain, spans, metrics = traced(lib, prelude, cycle,
                                           passes_for(args.workload, args.seconds / 2),
                                           DEADLINE_S, probe)
            results = plain + spans
        else:
            results = run_loop(prelude, cycle, passes_for(args.workload, args.seconds),
                               DEADLINE_S, probe, between=set_up_again)
        confirm_not_bipartite(lib, results, DEADLINE_S)
        if args.trace:
            metrics.update(overhead(plain, spans))
        else:
            metrics = end_to_end(results, statistics.median(setup_s))
    finally:
        remove_workdir(workdir)
    names = expected_metrics("per_layer" if args.trace else "end_to_end")
    missing = sorted(set(names) - set(metrics))
    if missing:
        print(f"metrics missing from this run: {missing}", file=sys.stderr)
        return 1
    _, pct = tail([r.seconds for r in results])
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(results)} operations, "
          f"{len(probe.samples)} probe samples, op_tail is p{pct:.2f} of {len(results)} "
          f"samples")
    for name in names:
        value, unit = metrics[name]
        print(f"  {name} = {value:.6g} {unit}")
    report_failures(results)
    wrong = unexpected(results)
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(results),
        "failed": sum(r.reason is not None for r in results),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in names},
    }))
    return 0


def smoke(seed: int) -> int:
    wrong = []
    for name in workloads.WORKLOADS:
        workdir = os.path.join(WORK, f"smoke-{name}-{os.getpid()}")
        try:
            lib, prelude, cycle = set_up(name, seed, workdir, True)
            results = run_loop(prelude, cycle, 1, SMOKE_DEADLINE_S, HostProbe(enabled=True))
            confirm_not_bipartite(lib, results, SMOKE_DEADLINE_S)
        finally:
            remove_workdir(workdir)
        print(f"smoke {name}: {len(results)} operations")
        report_failures(results)
        wrong += unexpected(results)
    print("smoke: " + ("FAILED" if wrong else "ok"))
    return 1 if wrong else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=REFERENCE_S)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload once at tiny sizes, no timing gate")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bdr", "__init__.py")):
        print(f"error: no bdr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # One CPU for the whole run: the vCPUs of a small VM can differ in speed
    # by a third, and migrating between them showed up as run-to-run noise.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, _alarm)
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
