"""Command-line front end.

Exit codes: 0 = Bipartite (or success for non-decision commands),
1 = NotBipartite (also a ``verify-reduction`` disagreement and an
``oracle`` false), 2 = Undecided, 3 = input or usage error, a refused
size or budget, or memory run out.
JSON goes to stdout, diagnostics to stderr; output is deterministic for
identical inputs and seed.

Argv is read against one table, COMMANDS: ``--opt value`` or ``--opt=value``
(never abbreviated; the value may start with "-") and positionals in any
order, the last of a repeated option winning.  ``-h`` prints the usage.
"""

from __future__ import annotations

import io
import json
import random
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Iterable

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
# the count vectors oracle and verify-reduction test given no --budget
ORACLE_BUDGET = 100_000


def _read_text(path: str) -> str:
    """The text of the file ``path``, its bytes read unbuffered.  ASCII
    bytes read as text mode reads them in any locale, but for newline
    translation, which neither the whitespace split nor ``splitlines``
    sees; other bytes are decoded by a text-mode wrapper, as
    ``open(path)`` decodes them."""
    with open(path, "rb", buffering=0) as fh:
        data = fh.read()
    if data.isascii():
        return data.decode("ascii")
    with io.TextIOWrapper(io.BytesIO(data)) as fh:
        return fh.read()


def _read_sequence(path: str) -> DegreeSequence:
    return core.parse_sequence(_read_text(path))


def _read_pair(path: str) -> list[tuple[int, ...]]:
    """The degrees of the two classes, one parsed line each."""
    lines = [line for line in _read_text(path).splitlines() if line.strip()]
    if len(lines) != 2:
        raise ParseError(f"expected two sequence lines in {path}, got {len(lines)}")
    return [core.parse_sequence(line).degrees for line in lines]


# one sorting encoder for every value: json.dumps(..., sort_keys=True)
# would build one per call
_dump = json.JSONEncoder(sort_keys=True).encode


def _emit(payload: dict, key: str | None = None, items: Iterable[str] = ()) -> None:
    """Print ``json.dumps({**payload, key: [...]}, sort_keys=True)``, the
    list being the JSON texts ``items``, each written as it comes (no
    ``key``: ``payload`` alone), each value by ``_dump``."""
    out, sep = sys.stdout, "{"
    for name in sorted(payload if key is None else {*payload, key}):
        out.write(f"{sep}{_dump(name)}: ")
        sep = ", "
        if name == key:
            out.write("[")
            for i, chunk in enumerate(items):
                out.write(", " if i else "")
                out.write(chunk)
            out.write("]")
        else:
            out.write(_dump(payload[name]))
    out.write("}\n" if sep == ", " else "{}\n")


def run_decide(args) -> int:
    ds = _read_sequence(args.file)
    bounds = ParamBounds(args.c1, args.c2)
    decision = decider.decide_bdr(ds, bounds)
    if decision.verdict == "Undecided" and args.exact:
        decision = decider.decide_exact(ds, budget=args.budget)
    split, g = decision.split, decision.realization
    payload = {"verdict": decision.verdict, "reason": decision.reason, "realization": None,
               "split": None if split is None else {"u_indices": list(split.u),
                                                    "v_indices": list(split.v)},
               "region": decider.classify_region(bounds).value}
    if g is None:
        _emit(payload)
    else:
        _emit(payload, "realization", gale_ryser.edge_chunks(g, "[{}, ", "]", ", "))
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
    """Write the instance; each block's role is rendered once and repeated
    over the block."""
    ds = _read_sequence(args.file)
    inst = reduction.build_hard_instance(ds, ParamBounds(args.c1, args.c2))
    roles: list[str] = []
    for kind, index, _, count in inst.blocks:
        roles += [_dump({"kind": kind, "source_index": index})] * count
    _emit({
        "r": str(inst.r),
        "c1_tilde": str(inst.c1_tilde),
        "c2_tilde": str(inst.c2_tilde),
        "n": inst.n,
        "d_prime": list(inst.d_prime.degrees),
    }, "roles", [", ".join(roles)])
    return 0


def run_verify_reduction(args) -> int:
    ds = _read_sequence(args.file)
    report = reduction.verify_reduction_roundtrip(ds, ParamBounds(args.c1, args.c2),
                                                  budget=args.budget)
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
    rng = random.Random(args.seed)
    print("c1,c2,region,frac_split,frac_bipartite,samples")
    for c1 in args.c1_grid:
        for c2 in args.c2_grid:
            if c1 > c2:
                continue
            bounds = ParamBounds(c1, c2)
            lo, hi = core.degree_window(bounds, args.n)
            count = n_split = n_bip = 0
            # decided as drawn: no draw depends on a decision
            for _ in range(args.samples if lo <= hi else 0):
                ds = _random_graphic_in_window(rng, args.n, lo, hi, 200)
                if ds is None:
                    continue
                count += 1
                n_split += partition.equal_sum_split_exists(ds)
                decision = decider.decide_bdr(ds, bounds)
                if decision.verdict == "Undecided":
                    decision = decider.decide_exact(ds, budget=args.budget)
                n_bip += decision.verdict == "Bipartite"
            share = count or 1  # with no sample, both fractions are 0 / 1 = 0.0
            region = decider.classify_region(bounds).value
            print(f"{c1},{c2},{region},{n_split / share},{n_bip / share},{count}")
    return 0


def run_oracle(args) -> int:
    ds = _read_sequence(args.file)
    verdict = oracle.brute_force_bipartite_realizable(ds, budget=args.budget)
    _emit({"bipartite": verdict})
    return EXIT_BIPARTITE if verdict else EXIT_NOT_BIPARTITE


def _integer(name: str, low: int | None = None, high: int | None = None):
    """ASCII digits with one optional leading "-" (``int`` also takes "+", "_", " ")."""
    def convert(text: str) -> int:
        digits = text[1:] if text[:1] == "-" else text
        if not (digits.isascii() and digits.isdigit()):
            raise ParseError(f"{name} must be an integer, got {text!r}")
        if low is not None and int(text) < low:
            raise ParseError(f"{name} must be >= {low}")
        if high is not None and int(text) > high:
            raise ParseError(f"{name} must be <= {high}")
        return int(text)
    return convert


_BOUNDS = {"--c1": (core.parse_rational, None), "--c2": (core.parse_rational, None)}
_BUDGET = {"--budget": (_integer("budget", 0), None)}  # None: unlimited
_ORACLE_BUDGET = {"--budget": (_integer("budget", 0), ORACLE_BUDGET)}
_FILE = {"file": str}
# lbds and scan build n entries per sequence: n is held to reduce's entry limit
_ENTRIES = _integer("n", 0, reduction.MAX_PADDED_ENTRIES)
# command -> (handler, help line, {option: (converter or "flag", default)},
#             required options, {positional name: converter})
COMMANDS = {
    "decide": (run_decide, "decide bipartite realizability",
               {**_BOUNDS, "--exact": ("flag", False), **_BUDGET}, ("--c1", "--c2"), _FILE),
    "realize": (run_realize, "realize a two-line degree sequence pair", {}, (), _FILE),
    "lbds": (run_lbds, "print the least balanced sequence of a class", {}, (),
             {"n": _ENTRIES, **{name: _integer(name) for name in ("sigma", "delta", "d")}}),
    "reduce": (run_reduce, "build the padded hard instance", _BOUNDS, ("--c1", "--c2"), _FILE),
    "verify-reduction": (run_verify_reduction, "round-trip verdict check",
                         {**_BOUNDS, **_ORACLE_BUDGET}, ("--c1", "--c2"), _FILE),
    "scan": (run_scan, "sample the parameter grid, CSV to stdout",
             {"--c1-grid": (_parse_grid, None), "--c2-grid": (_parse_grid, None),
              "--samples": (_integer("samples", 1), 20), "--n": (_ENTRIES, 12),
              "--seed": (_integer("seed"), 0), **_BUDGET}, ("--c1-grid", "--c2-grid"), {}),
    "oracle": (run_oracle, "brute-force verdict (debugging)", _ORACLE_BUDGET, (), _FILE),
}


def _help(commands) -> int:
    """Print each command's usage, built from COMMANDS, and its help line."""
    for command in commands:
        _, line, options, required, positionals = COMMANDS[command]
        words = [name if kind == "flag" else f"{name} {name[2:].upper()}"
                 for name, (kind, _) in options.items()]
        print("usage: bdr", command, *(w if w.split()[0] in required else f"[{w}]" for w in words),
              *map(str.upper, positionals), end=f"\n    {line}\n")
    return 0


def _read_argv(argv: list[str]):
    """The handler of argv's command and a namespace of its converted values."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        return _help, COMMANDS
    if command not in COMMANDS:
        got = f", got {command!r}" if argv else ""
        raise ParseError(f"expected a command: {', '.join(COMMANDS)}{got}")
    handler, _, options, required, positionals = COMMANDS[command]
    given, texts, items = {}, [], iter(argv[1:])
    for item in items:
        name, eq, value = item.partition("=")
        if item in ("-h", "--help"):
            return _help, (command,)
        if item[:1] != "-":
            texts.append(item)
        elif name not in options or eq and options[name][0] == "flag":
            raise ParseError(f"{command} has no option {item}")
        else:
            given[name] = value if eq or options[name][0] == "flag" else next(items, None)
    missing = [name for name in (*required, *given) if given.get(name) is None]
    if missing:
        raise ParseError(f"{command} needs a value for {missing[0]}")
    if len(texts) != len(positionals):
        raise ParseError(f"{command} takes {len(positionals)} argument(s), got {len(texts)}")
    values = {name[2:].replace("-", "_"): default if name not in given else
              True if kind == "flag" else kind(given[name])
              for name, (kind, default) in options.items()}
    values.update((name, conv(text)) for (name, conv), text in zip(positionals.items(), texts))
    return handler, SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        handler, args = _read_argv(sys.argv[1:] if argv is None else argv)
        return handler(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BdrError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:  # not exit 1, which decide and oracle read as a verdict
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
