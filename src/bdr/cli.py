"""Command-line front end.

Exit codes: 0 = Bipartite (or success for non-decision commands),
1 = NotBipartite, 2 = Undecided, 3 = input or usage error.
JSON goes to stdout, diagnostics to stderr; output is deterministic for
identical inputs and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction

from . import core, decider, gale_ryser, oracle, partition, reduction
from .lbds import lbds as compute_lbds
from .core import DegreeClass, DegreeSequence, ParamBounds
from .errors import BdrError, BudgetExceededError, ParseError

EXIT_BIPARTITE = 0
EXIT_NOT_BIPARTITE = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 3
# points per scan grid axis, checked before any point is built, so that a
# grid such as 0:1:1/1000000000 fails at once instead of filling memory
MAX_GRID_POINTS = 1000


def _read_sequence(path: str) -> DegreeSequence:
    with open(path) as fh:
        return core.parse_sequence(fh.read())


def _read_pair(path: str) -> list[tuple[int, ...]]:
    """The degrees of the two classes, one parsed line each."""
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if len(lines) != 2:
        raise ParseError(f"expected two sequence lines in {path}, got {len(lines)}")
    return [core.parse_sequence(line).degrees for line in lines]


def _bounds(args) -> ParamBounds:
    return ParamBounds(core.parse_rational(args.c1), core.parse_rational(args.c2))


def _emit_decision(decision: decider.Decision) -> None:
    """Write the decision as ``_emit`` would, with sorted keys, but render the
    edge list straight from the realization's neighbor tuples.  "realization"
    is the first key in sorted order, so the edges come before the dump of
    the other keys."""
    split = None
    if decision.split is not None:
        split = {"u_indices": list(decision.split.u),
                 "v_indices": list(decision.split.v)}
    rest = json.dumps({
        "verdict": decision.verdict,
        "reason": decision.reason,
        "split": split,
        "region": decision.region.value if decision.region is not None else None,
    }, sort_keys=True)
    out = sys.stdout
    if decision.realization is None:
        out.write('{"realization": null')
    else:
        out.write('{"realization": [')
        chunks = gale_ryser.edge_chunks(decision.realization, "[{}, ", "]", ", ")
        out.write(next(chunks, ""))
        for chunk in chunks:
            out.write(", ")
            out.write(chunk)
        out.write("]")
    out.write(", " + rest[1:] + "\n")


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _budget(args) -> int | None:
    """``--budget``, checked before any input is read; None means unlimited."""
    if args.budget is not None and args.budget < 0:
        raise ParseError("budget must be >= 0")
    return args.budget


def run_decide(args) -> int:
    budget = _budget(args)
    ds = _read_sequence(args.file)
    decision = decider.decide_bdr(ds, _bounds(args))
    if decision.verdict == "Undecided" and args.exact:
        decision = decider.decide_exact(ds, budget=budget).with_region(
            decision.region)
    _emit_decision(decision)
    return {"Bipartite": EXIT_BIPARTITE,
            "NotBipartite": EXIT_NOT_BIPARTITE,
            "Undecided": EXIT_UNDECIDED}[decision.verdict]


def run_realize(args) -> int:
    g = gale_ryser.construct_realization(*_read_pair(args.file))
    if g is None:
        print("infeasible: pair is not bigraphic", file=sys.stderr)
        return EXIT_NOT_BIPARTITE
    print(gale_ryser.format_realization(g))
    return EXIT_BIPARTITE


def run_lbds(args) -> int:
    cls = DegreeClass(args.n, args.sigma, args.d, args.delta)
    seq = compute_lbds(cls)
    print(" ".join(str(d) for d in seq.degrees))
    return 0


def run_reduce(args) -> int:
    """Write the instance as ``_emit`` would.  "roles" is the last key in
    sorted order, so it is appended to the dump of the other keys, and each
    distinct ``Role`` object, most of them shared, is rendered once."""
    ds = _read_sequence(args.file)
    inst = reduction.build_hard_instance(ds, _bounds(args))
    rest = json.dumps({
        "r": str(inst.r),
        "c1_tilde": str(inst.c1_tilde),
        "c2_tilde": str(inst.c2_tilde),
        "n": inst.n,
        "d_prime": list(inst.d_prime.degrees),
    }, sort_keys=True)
    roles = inst.roles
    # keys already in sorted order, so no sort_keys (and its fresh encoder)
    text = {key: json.dumps({"kind": role.kind, "source_index": role.source_index})
            for key, role in dict(zip(map(id, roles), roles)).items()}
    print(rest[:-1] + ', "roles": [' + ", ".join(map(text.__getitem__, map(id, roles))) + "]}")
    return 0


def run_verify_reduction(args) -> int:
    budget = _budget(args)
    ds = _read_sequence(args.file)
    report = reduction.verify_reduction_roundtrip(ds, _bounds(args), budget=budget)
    _emit({
        "source_realizable": report.source_realizable,
        "padded_realizable": report.padded_realizable,
        "agree": report.agree,
        "n": report.instance.n,
        "r": str(report.instance.r),
    })
    return 0 if report.agree else 1


def _parse_grid(text: str) -> list[Fraction]:
    try:
        start_s, stop_s, step_s = text.split(":")
    except ValueError as exc:
        raise ParseError(f"grid must be start:stop:step, got {text!r}") from exc
    start = core.parse_rational(start_s)
    stop = core.parse_rational(stop_s)
    step = core.parse_rational(step_s)
    if step <= 0:
        raise ParseError("grid step must be positive")
    count = max(0, (stop - start) // step + 1)
    if count > MAX_GRID_POINTS:
        raise ParseError(f"grid {text!r} has {count} points, more than {MAX_GRID_POINTS}")
    points = [start + k * step for k in range(count)]
    if points and not 0 <= points[0] <= points[-1] <= 1:
        raise ParseError(f"grid {text!r} has points outside [0, 1]")
    return points


def _random_graphic_in_window(rng: random.Random, n: int, lo: int, hi: int,
                              attempts: int) -> DegreeSequence | None:
    for _ in range(attempts):
        ds = DegreeSequence(sorted((rng.randint(lo, hi) for _ in range(n)),
                                   reverse=True))
        if core.is_graphic(ds):
            return ds
    return None


def run_scan(args) -> int:
    if args.samples < 1:
        raise ParseError("samples must be >= 1")
    if args.n < 0:
        raise ParseError("n must be >= 0")
    budget = _budget(args)
    c1_grid, c2_grid = _parse_grid(args.c1_grid), _parse_grid(args.c2_grid)
    rng = random.Random(args.seed)
    print("c1,c2,region,frac_split,frac_bipartite,samples")
    for c1 in c1_grid:
        for c2 in c2_grid:
            if c1 > c2:
                continue
            bounds = ParamBounds(c1, c2)
            region = decider.classify_region(bounds)
            lo, hi = core.degree_window(bounds, args.n)
            found: list[DegreeSequence] = []
            if lo <= hi:
                for _ in range(args.samples):
                    ds = _random_graphic_in_window(rng, args.n, lo, hi, 200)
                    if ds is not None:
                        found.append(ds)
            n_split = 0
            n_bip = 0
            for ds in found:
                if partition.equal_sum_split_exists(ds):
                    n_split += 1
                decision = decider.decide_bdr(ds, bounds)
                if decision.verdict == "Undecided":
                    decision = decider.decide_exact(ds, budget=budget)
                if decision.verdict == "Bipartite":
                    n_bip += 1
            count = len(found)
            frac_split = n_split / count if count else 0.0
            frac_bip = n_bip / count if count else 0.0
            print(f"{c1},{c2},{region.value},{frac_split},{frac_bip},{count}")
    return 0


def run_oracle(args) -> int:
    budget = _budget(args)
    ds = _read_sequence(args.file)
    verdict = oracle.brute_force_bipartite_realizable(ds, budget=budget)
    _emit({"bipartite": verdict})
    return EXIT_BIPARTITE if verdict else EXIT_NOT_BIPARTITE


def _add_bounds(parser) -> None:
    parser.add_argument("--c1", required=True, help='lower bound, "p/q" or decimal')
    parser.add_argument("--c2", required=True, help='upper bound, "p/q" or decimal')


@functools.cache  # built once per process: the build costs more than most decisions
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bdr",
                                     description="bipartite degree realization tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide bipartite realizability")
    _add_bounds(p)
    p.add_argument("--exact", action="store_true",
                   help="fall back to exhaustive split search when undecided")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("file")
    p.set_defaults(func=run_decide)

    p = sub.add_parser("realize", help="realize a two-line degree sequence pair")
    p.add_argument("file")
    p.set_defaults(func=run_realize)

    p = sub.add_parser("lbds", help="print the least balanced sequence of a class")
    p.add_argument("n", type=int)
    p.add_argument("sigma", type=int)
    p.add_argument("delta", type=int)
    p.add_argument("d", type=int)
    p.set_defaults(func=run_lbds)

    p = sub.add_parser("reduce", help="build the padded hard instance")
    _add_bounds(p)
    p.add_argument("file")
    p.set_defaults(func=run_reduce)

    p = sub.add_parser("verify-reduction", help="round-trip verdict check")
    _add_bounds(p)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("file")
    p.set_defaults(func=run_verify_reduction)

    p = sub.add_parser("scan", help="sample the parameter grid, CSV to stdout")
    p.add_argument("--c1-grid", required=True, help="start:stop:step")
    p.add_argument("--c2-grid", required=True, help="start:stop:step")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=run_scan)

    p = sub.add_parser("oracle", help="brute-force verdict (debugging)")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("file")
    p.set_defaults(func=run_oracle)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else 0
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BdrError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
