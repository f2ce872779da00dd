"""The three workloads: seeded inputs, the operations on them, their checks.

A workload builder writes its input files into ``workdir`` and returns a
prelude, run once at the start of each run, and the pass of operations the
closed loop repeats.  Every operation
reaches bdr through ``lib`` at call time, so the traced run's wrappers
(installed on those module attributes) see every call.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import checks

# failure reasons that are not wrong outputs
BUDGET = "budget"
TIMEOUT = "timeout"
DISAGREE = "disagree"
# a NotBipartite verdict that the count-vector oracle confirms after timing
PENDING_ORACLE = "pending-oracle"

EXACT_BUDGET = "20000"
# (c1, c2) pairs the random n = 20 exact-search inputs rotate over
EXACT_PAIRS = [("0", "9/20"), ("1/20", "1/2"), ("1/10", "2/5"),
               ("1/5", "11/20"), ("0", "3/5"), ("1/10", "1/4")]
HARD = ("1/10", "2/5")
WIDE = ("1/20", "9/20")
FAR = ("3/20", "2/5")  # r = 9/20: padded instances of 1.6k-2.4k entries


@dataclass
class Op:
    """One closed-loop operation: ``call`` is timed, ``check`` is not."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    degrees: tuple[int, ...] | None = None  # input of a decide operation


class CliResult(NamedTuple):
    rc: int
    out: str
    err: str


def run_cli(lib, argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = lib.cli.main(argv)
    return CliResult(rc, out.getvalue(), err.getvalue())


def _write(workdir: str, name: str, degrees) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(" ".join(map(str, degrees)) + "\n")
    return path


def _window(c1: str, c2: str, n: int) -> tuple[int, int]:
    lo, hi = Fraction(c1) * n, Fraction(c2) * n
    return -(-lo.numerator // lo.denominator), hi.numerator // hi.denominator


def _even_sum_sequence(rng, n: int, lo: int, hi: int) -> tuple[int, ...]:
    degrees = [rng.randint(lo, hi) for _ in range(n)]
    while sum(degrees) % 2:
        degrees[-1] = rng.randint(lo, hi)
    return tuple(degrees)


def _partitions(rem: int, largest: int):
    if rem == 0:
        yield ()
        return
    for first in range(min(rem, largest), 0, -1):
        for rest in _partitions(rem - first, first):
            yield (first,) + rest


def reduction_corpus(max_sum: int) -> list[tuple[int, ...]]:
    """Zero-free multisets with even S <= max_sum and every degree < S/2."""
    return [p for s in range(4, max_sum + 1, 2) for p in _partitions(s, s // 2 - 1)]


def interleave(rng, groups: list[list[Op]]) -> list[Op]:
    """Spread each group evenly over the pass."""
    keyed = []
    for group in groups:
        offset = rng.random()
        keyed += [((i + offset) / len(group), op) for i, op in enumerate(group)]
    keyed.sort(key=lambda item: item[0])
    return [op for _, op in keyed]


def _decide_op(lib, label: str, argv: list[str], degrees, on_not_bipartite: str) -> Op:
    def check(result) -> str | None:
        rc, out, err = result
        if rc == 0:
            reason = checks.check_decision(degrees, json.loads(out))
            return reason and f"check: {reason}"
        if rc == 1 and json.loads(out)["verdict"] == "NotBipartite":
            return on_not_bipartite
        if rc == 3 and err.startswith("budget exceeded"):
            return BUDGET
        return f"exit code {rc}: {err.strip()[:120]}"

    return Op(label, lambda: run_cli(lib, argv), check, degrees)


def low_witness(lib, rng, workdir: str, smoke: bool) -> tuple[list[Op], list[Op]]:
    """decide in the low tractable region: split DP, realizer, JSON emit."""
    n, count = (200, 2) if smoke else (2000, 4)
    c1, c2 = "1/10", "1/5"
    lo, hi = _window(c1, c2, n)
    ops = []
    for k in range(count):
        degrees = _even_sum_sequence(rng, n, lo, hi)
        path = _write(workdir, f"low-{k}.txt", degrees)
        # every even-sum sequence this dense has an equal-sum split, and in
        # the low region every such split is bigraphic
        ops.append(_decide_op(lib, f"low n={n} #{k}", ["decide", "--c1", c1, "--c2", c2, path],
                              degrees, "check: NotBipartite in the low tractable region"))
    return [], ops


def _padded(lib, source, c1: str, c2: str) -> tuple[int, ...]:
    bounds = lib.core.ParamBounds(Fraction(c1), Fraction(c2))
    inst = lib.reduction.build_hard_instance(lib.core.DegreeSequence(source), bounds)
    return inst.d_prime.degrees


def _exact_op(lib, workdir: str, name: str, label: str, c1: str, c2: str, degrees) -> Op:
    path = _write(workdir, name, degrees)
    return _decide_op(lib, label, ["decide", "--c1", c1, "--c2", c2, "--exact", "--budget",
                                   EXACT_BUDGET, path], degrees, PENDING_ORACLE)


def exact_search(lib, rng, workdir: str, smoke: bool) -> tuple[list[Op], list[Op]]:
    """decide --exact: split enumeration against Gale-Ryser."""
    n, count = 20, 12 if smoke else 300
    # One fixed draw for every seed: about 60% of these inputs are decided
    # in a few ms and the rest take 5-500 ms, so the median sits at that
    # edge, and a fresh draw per seed moved it by 20% between seeds.  The
    # seed orders the pass.
    draw = random.Random("exact-search inputs")
    randoms = []
    for k in range(count):
        c1, c2 = EXACT_PAIRS[k % len(EXACT_PAIRS)]
        degrees = _even_sum_sequence(draw, n, *_window(c1, c2, n))
        randoms.append(_exact_op(lib, workdir, f"exact-{k}.txt",
                                 f"random n={n} ({c1},{c2}) #{k}", c1, c2, degrees))
    # the whole acceptance corpus; all but one of them exceed the budget
    padded = [_exact_op(lib, workdir, f"padded-{k}.txt", f"padded {HARD[0]},{HARD[1]} {source}",
                        *HARD, _padded(lib, source, *HARD))
              for k, source in enumerate(reduction_corpus(8))]
    # the stall runs once per run, before the passes
    source = (1, 1, 1, 1)
    stall = _exact_op(lib, workdir, "stall.txt", f"padded {FAR[0]},{FAR[1]} {source}",
                      *FAR, _padded(lib, source, *FAR))
    return [stall], interleave(rng, [randoms, padded])


def _reduction_ops(lib, workdir: str, k: int, source, c1: str, c2: str) -> list[Op]:
    fc1, fc2 = Fraction(c1), Fraction(c2)
    path = _write(workdir, f"source-{k}.txt", source)
    tag = f"{c1},{c2} {source}"
    own_realizable = checks.realizable(source)

    def check_reduce(result) -> str | None:
        rc, out, err = result
        if rc != 0:
            return f"exit code {rc}: {err.strip()[:120]}"
        reason = checks.check_reduce(source, fc1, fc2, json.loads(out))
        return reason and f"check: {reason}"

    def check_verify(result) -> str | None:
        rc, out, err = result
        if rc not in (0, 1):
            return f"exit code {rc}: {err.strip()[:120]}"
        payload = json.loads(out)
        if payload["source_realizable"] != own_realizable:
            return "check: wrong source verdict"
        if rc != (0 if payload["agree"] else 1):
            return "check: exit code does not match agree"
        return None if payload["agree"] else DISAGREE

    bounds = ["--c1", c1, "--c2", c2, path]
    ops = [Op(f"reduce {tag}", lambda: run_cli(lib, ["reduce", *bounds]), check_reduce),
           Op(f"verify-reduction {tag}", lambda: run_cli(lib, ["verify-reduction", *bounds]),
              check_verify)]
    if not own_realizable:
        return ops

    # lift and project are two operations; project works on the graph the
    # lift of the same pass left behind
    lifted_by_lift: dict[str, object] = {}

    def lift():
        lifted_by_lift.clear()
        inst = lib.reduction.build_hard_instance(lib.core.DegreeSequence(source),
                                                 lib.core.ParamBounds(fc1, fc2))
        found = lib.decider.decide_exact(inst.source)
        if found.realization is None:
            return inst, found, None
        lifted = lib.reduction.lift_realization(found.realization, found.split, inst)
        lifted_by_lift.update(inst=inst, original=found.realization, lifted=lifted)
        return inst, found, lifted

    def check_lift(result) -> str | None:
        inst, found, lifted = result
        if lifted is None:
            return "check: no realization of a realizable source"
        reason = checks.check_witness(source, found.split.u_indices(),
                                      found.split.v_indices(), list(found.realization.edges))
        if reason:
            return f"check: source witness: {reason}"
        if checks.degree_multiset(lifted.u_count, lifted.v_count, lifted.edges) != sorted(
                inst.d_prime.degrees):
            return "check: lifted graph does not realize D'"
        return None

    def project():
        if not lifted_by_lift:
            return None
        # drop the lifted graph now, so that no two lifted graphs are alive
        state = dict(lifted_by_lift)
        lifted_by_lift.clear()
        return state["original"], lib.reduction.project_realization(state["lifted"],
                                                                    state["inst"])

    def check_project(result) -> str | None:
        if result is None:
            return "check: no lifted graph to project"
        g, back = result
        if (back.u_count, back.v_count, back.edges) != (g.u_count, g.v_count, g.edges):
            return "check: projection differs from the original"
        return None

    ops.append(Op(f"lift {tag}", lift, check_lift))
    ops.append(Op(f"project {tag}", project, check_project))
    return ops


def reduction(lib, rng, workdir: str, smoke: bool) -> tuple[list[Op], list[Op]]:
    """reduce, verify-reduction, and lift then project per realizable source."""
    if smoke:
        plan = [(HARD, reduction_corpus(6)), (WIDE, [(2, 2, 2, 2, 2)]), (FAR, reduction_corpus(4))]
    else:
        plan = [(HARD, reduction_corpus(8)), (WIDE, reduction_corpus(10) + [(4, 3, 3, 2, 2, 2)]),
                (FAR, reduction_corpus(6))]
    groups, k = [], 0
    for (c1, c2), sources in plan:
        rng.shuffle(sources)
        group = []
        for source in sources:
            group += _reduction_ops(lib, workdir, k, source, c1, c2)
            k += 1
        groups.append(group)
    return [], interleave(rng, groups)


WORKLOADS = {"low-witness": low_witness, "exact-search": exact_search,
             "reduction": reduction}
