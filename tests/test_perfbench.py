"""Guards that keep the benchmark in perfbench/ runnable against src/.

The traced run wraps bdr functions at their callers' module attributes, so
renaming or deleting such a binding breaks ``--trace 1`` without failing
any other test.
"""

import importlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's run and tracing modules; bdr modules are restored after."""
    monkeypatch.syspath_prepend(PERFBENCH)
    saved = {name: mod for name, mod in sys.modules.items()
             if name == "bdr" or name.startswith("bdr.")}
    try:
        yield importlib.import_module("run"), importlib.import_module("tracing")
    finally:
        for name in [m for m in sys.modules if m == "bdr" or m.startswith("bdr.")]:
            del sys.modules[name]
        sys.modules.update(saved)
        for name in ("run", "tracing", "workloads", "checks"):
            sys.modules.pop(name, None)


def test_tracer_patches_resolve(perfbench):
    run, tracing = perfbench
    lib = run.load_bdr()
    tracer = tracing.Tracer()
    tracer.install(lib)  # raises AttributeError if a patched name is gone
    try:
        patched = list(tracer._restore)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr


def test_tracer_sees_verify_reduction_oracle_calls(perfbench, tmp_path, capsys):
    # verify-reduction asks the oracle twice, source and padded D'; its
    # call-time import reads the oracle module's attribute, so the span
    # wrapped there counts both calls
    run, tracing = perfbench
    lib = run.load_bdr()
    source = tmp_path / "d.txt"
    source.write_text("2 1 1 1 1\n")
    tracer = tracing.Tracer()
    tracer.install(lib)
    try:
        code = lib.cli.main(["verify-reduction", "--c1", "1/10", "--c2", "2/5", str(source)])
    finally:
        tracer.uninstall()
    assert code == 0, capsys.readouterr().err
    assert tracer.counts["oracle.brute_force_bipartite_realizable.calls"] == 2


def test_smoke_run():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.rstrip().endswith("smoke: ok")
