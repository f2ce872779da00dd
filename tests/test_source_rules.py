"""The package's one-copy design rules, read from the source of src/bdr.

Each rule is a function of the modules' source texts, keyed by file name,
that returns the places where it is broken ("file:line: what"), and
``test_rule`` asserts that it returns none.  The rules read the syntax
tree, so a mention in a comment, a docstring or a string is not code.
``test_rule_flags_planted_fault`` shows each rule flagging a fault planted
in a copy of the sources, so that no rule passes by matching nothing.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bdr"
SOURCES = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@lru_cache(maxsize=None)
def parse(text: str) -> ast.Module:
    return ast.parse(text)


def walk(sources):
    """(file name, node, names of the classes and functions around it) for
    every node of every module."""
    for file, text in sources.items():
        todo = [(parse(text), ())]
        while todo:
            node, scope = todo.pop()
            yield file, node, scope
            if isinstance(node, SCOPES):
                scope += (node.name,)
            todo.extend((child, scope) for child in ast.iter_child_nodes(node))


def at(file, node, what):
    return f"{file}:{node.lineno}: {what}"


def named(node, *names):
    """True if ``node`` reads one of ``names``, as a name or an attribute."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name in names and isinstance(node.ctx, ast.Load)


def no_assert(sources):
    """Proof invariants raise BdrError subclasses: python -O strips an assert."""
    return [at(f, n, "assert statement") for f, n, _ in walk(sources)
            if isinstance(n, ast.Assert)]


def no_split_accessor(sources):
    """src/bdr reads a split's u and v; SplitWitness.u_indices() and
    v_indices() are kept for perfbench/ only."""
    return [at(f, n, f".{n.attr}") for f, n, _ in walk(sources)
            if isinstance(n, ast.Attribute) and n.attr in ("u_indices", "v_indices")]


def no_edge_list(sources):
    """The witness path stays on the row bitsets: no .edges and no
    .sorted_edges but the edges property's own call, both kept for
    perfbench/ only."""
    return [at(f, n, f".{n.attr}") for f, n, scope in walk(sources)
            if isinstance(n, ast.Attribute) and n.attr in ("edges", "sorted_edges")
            and (f, scope, n.attr) != ("gale_ryser.py", ("BipartiteRealization", "edges"),
                                       "sorted_edges")]


def one_subset_sum_step(sources):
    """The bounded subset-sum step is one copy: only _run_sums reads
    _binary_parts, and partition.py defines it once, at module level."""
    return [at(f, n, "_binary_parts outside _run_sums") for f, n, scope in walk(sources)
            if named(n, "_binary_parts") and scope[-1:] != ("_run_sums",)
            or isinstance(n, SCOPES) and n.name == "_binary_parts"
            and (f, scope) != ("partition.py", ())]


def one_run_reader(sources):
    """Degrees are read into (value, count) runs by one function: one
    module-level def of _value_runs in core.py, and no other def of the
    name or assignment to it."""
    kept, bad = False, []
    for f, n, scope in walk(sources):
        if (isinstance(n, SCOPES) and n.name == "_value_runs"
                or isinstance(n, ast.Name) and n.id == "_value_runs"
                and isinstance(n.ctx, ast.Store)):
            if not kept and (f, scope) == ("core.py", ()) and isinstance(n, ast.FunctionDef):
                kept = True
            else:
                bad.append(at(f, n, "_value_runs defined again"))
    return bad if kept else bad + ["core.py: no module-level def _value_runs"]


def one_realize_step(sources):
    """The decider realizes a split in one place, _realized: decider.py
    reads construct_realization once, to call it."""
    tree = parse(sources["decider.py"])
    called = [n.func for n in ast.walk(tree) if isinstance(n, ast.Call)]
    reads = [n for n in ast.walk(tree) if named(n, "construct_realization")]
    if len(reads) == 1 and any(f is reads[0] for f in called):
        return []
    return ([at("decider.py", n, "construct_realization read") for n in reads]
            or ["decider.py: no construct_realization call"])


def partition_imports(sources):
    """The subset-sum layer, partition.py, imports no bdr module but
    .core and .errors."""
    bad = []
    for n in ast.walk(parse(sources["partition.py"])):
        if isinstance(n, ast.ImportFrom):
            modules = ["." * n.level + (n.module or "")]
        elif isinstance(n, ast.Import):
            modules = [alias.name for alias in n.names]
        else:
            continue
        bad += [at("partition.py", n, f"imports {module}") for module in modules
                if module.startswith(".") and module not in (".core", ".errors")
                or module.partition(".")[0] == "bdr"]
    return bad


def no_copied_region(sources):
    """A decision holds no region: it is read from the bounds by
    classify_region, so there is no dataclasses.replace and no region=
    keyword or default."""
    bad = []
    for f, n, _ in walk(sources):
        if isinstance(n, ast.ImportFrom) and n.module == "dataclasses":
            bad += [at(f, n, "imports dataclasses.replace")
                    for alias in n.names if alias.name == "replace"]
        elif (isinstance(n, ast.Attribute) and n.attr == "replace"
              and isinstance(n.value, ast.Name) and n.value.id == "dataclasses"):
            bad.append(at(f, n, "dataclasses.replace"))
        elif isinstance(n, ast.keyword) and n.arg == "region":
            bad.append(at(f, n, "region= keyword"))
        elif isinstance(n, ast.arguments):
            positional = n.posonlyargs + n.args
            defaulted = positional[len(positional) - len(n.defaults):] + [
                arg for arg, default in zip(n.kwonlyargs, n.kw_defaults) if default is not None]
            bad += [at(f, arg, "region= default") for arg in defaulted if arg.arg == "region"]
    return bad


def imports_read(sources):
    """Every name an import binds is read in its module.  Exempt:
    __init__.py's re-exports, __future__, and imports marked
    "# noqa: F401", which perfbench/tracing.py patches."""
    bad = []
    for file, text in sources.items():
        if file == "__init__.py":
            continue
        tree, lines = parse(text), text.splitlines()
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for n in ast.walk(tree):
            if (isinstance(n, (ast.Import, ast.ImportFrom))
                    and getattr(n, "module", None) != "__future__"
                    and "# noqa: F401" not in " ".join(lines[n.lineno - 1:n.end_lineno])):
                bad += [at(file, n, f"{name} is imported but never read")
                        for name in (alias.asname or alias.name.partition(".")[0]
                                     for alias in n.names)
                        if name not in read]
    return bad


RULES = [no_assert, no_split_accessor, no_edge_list, one_subset_sum_step, one_run_reader,
         one_realize_step, partition_imports, no_copied_region, imports_read]


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.__name__)
def test_rule(rule):
    assert rule(SOURCES) == []


# (rule, module, code appended to it)
PLANTED = [
    (no_assert, "core.py", "def f(x):\n    assert x\n"),
    (no_split_accessor, "cli.py", "def f(split):\n    return split.v_indices()\n"),
    (no_edge_list, "reduction.py", "def f(g):\n    return len(g.edges)\n"),
    (no_edge_list, "gale_ryser.py", "def f(g):\n    return g.sorted_edges()\n"),
    (one_subset_sum_step, "partition.py", "def f(c):\n    return _binary_parts(c)\n"),
    (one_subset_sum_step, "core.py", "class Parts:\n    def _binary_parts(self, c):\n"
                                     "        return [c]\n"),
    (one_run_reader, "oracle.py", "def _value_runs(degrees):\n    return []\n"),
    (one_realize_step, "decider.py", "def f(a, b):\n    return construct_realization(a, b)\n"),
    (partition_imports, "partition.py", "from .gale_ryser import is_bigraphic\n"),
    (no_copied_region, "decider.py", "from dataclasses import replace\n"),
    (no_copied_region, "cli.py", "def f(d):\n    return decider.Decision(d, region=None)\n"),
    (imports_read, "lbds.py", "import json\n"),
]


@pytest.mark.parametrize("rule, file, code", PLANTED,
                         ids=[f"{rule.__name__}-{file}" for rule, file, _ in PLANTED])
def test_rule_flags_planted_fault(rule, file, code):
    assert rule({**SOURCES, file: f"{SOURCES[file]}\n\n{code}"})
