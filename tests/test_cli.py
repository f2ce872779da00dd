import dataclasses
import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from bdr import (BipartiteRealization, DegreeSequence, ParamBounds, classify_region,
                 decide_bdr, decide_exact, format_realization)
from bdr import cli, gale_ryser
from bdr.cli import MAX_GRID_POINTS, _parse_grid, main
from bdr.decider import Decision, RegionClass
from bdr.partition import SplitWitness
from bdr.reduction import build_hard_instance
from conftest import decoded_rows, pack, reduction_corpus

F = Fraction


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


EXACT_0_1 = ["decide", "--c1", "0", "--c2", "1", "--exact", "--budget"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDecide:
    def test_bipartite(self, tmp_path, capsys):
        f = write(tmp_path, "d.txt", "4 4 4 4 4 4 4 4 4 4\n")
        code, out, _ = run(capsys, ["decide", "--c1", "3/10", "--c2", "2/5", f])
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "Bipartite"
        assert payload["region"] == "LowTractable"
        assert payload["split"] is not None and payload["realization"] is not None

    def test_realization_is_flattened_neighbors(self, tmp_path, capsys):
        degrees = (4, 4, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2)
        f = write(tmp_path, "d.txt", " ".join(map(str, degrees)) + "\n")
        code, out, _ = run(capsys, ["decide", "--c1", "1/6", "--c2", "1/3", f])
        assert code == 0
        g = decide_bdr(DegreeSequence(degrees),
                       ParamBounds(Fraction(1, 6), Fraction(1, 3))).realization
        assert json.loads(out)["realization"] == [
            [u, v] for u, nbrs in enumerate(decoded_rows(g)) for v in nbrs]

    def test_not_bipartite(self, tmp_path, capsys):
        f = write(tmp_path, "d.txt", "3 3 3 3 3 3 3 3 3\n")
        code, out, _ = run(capsys, ["decide", "--c1", "1/3", "--c2", "1/3", f])
        assert code == 1
        assert json.loads(out)["verdict"] == "NotBipartite"

    def test_undecided_then_exact(self, tmp_path, capsys):
        f = write(tmp_path, "d.txt", "4 4 2 2 1 1 1 1 2 2\n")
        code, out, _ = run(capsys, ["decide", "--c1", "1/10", "--c2", "2/5", f])
        assert code == 2
        assert json.loads(out)["verdict"] == "Undecided"
        code, out, _ = run(capsys,
                           ["decide", "--exact", "--c1", "1/10", "--c2", "2/5", f])
        assert code in (0, 1)
        assert json.loads(out)["verdict"] in ("Bipartite", "NotBipartite")

    def test_zero_before_star(self, tmp_path, capsys):
        # u-vertex 0 is input position 0, degree 0; the 1 at position 1 is
        # u-vertex 1
        f = write(tmp_path, "d.txt", "0 1 1\n")
        code, out, _ = run(capsys, ["decide", "--c1", "0", "--c2", "1", f])
        assert code == 0
        payload = json.loads(out)
        assert payload["split"] == {"u_indices": [0, 1], "v_indices": [2]}
        assert payload["realization"] == [[1, 0]]

    @pytest.mark.parametrize("text, c1, c2, code, stdout", [
        # no single swap closes the greedy gap, so the count walk splits it
        ("5 5 5 5 5 5 5 5 4 4 4 4 4", "3/10", "2/5", 0,
         '{"realization": ['
         '[0, 0], [0, 1], [0, 2], [0, 3], [0, 4], '
         '[1, 0], [1, 1], [1, 2], [1, 5], [1, 6], '
         '[2, 0], [2, 1], [2, 3], [2, 4], [2, 5], '
         '[3, 0], [3, 1], [3, 2], [3, 3], [3, 6], '
         '[4, 0], [4, 1], [4, 4], [4, 5], [4, 6], '
         '[5, 2], [5, 3], [5, 4], [5, 5], [5, 6]], '
         '"reason": "split-found", "region": "LowTractable", '
         '"split": {"u_indices": [0, 1, 2, 3, 4, 5], "v_indices": [6, 7, 8, 9, 10, 11, 12]}, '
         '"verdict": "Bipartite"}\n'),
        # sigma/2 = 18 is no sum of 4s
        ("4 4 4 4 4 4 4 4 4", "4/9", "4/9", 1,
         '{"realization": null, "reason": "no-equal-sum-split", "region": "LowTractable", '
         '"split": null, "verdict": "NotBipartite"}\n'),
    ], ids=["split", "no-split"])
    def test_low_region_fallback(self, tmp_path, capsys, text, c1, c2, code, stdout):
        f = write(tmp_path, "d.txt", text + "\n")
        assert run(capsys, ["decide", "--c1", c1, "--c2", c2, f]) == (code, stdout, "")

    NO_WITNESS = ('{{"realization": null, "reason": "{}", "region": "{}", "split": null, '
                  '"verdict": "{}"}}\n')

    @pytest.mark.parametrize("text, c1, c2, exact, code, stdout", [
        # precheck, before any region logic
        ("1 1 1", "0", "1", False, 1,
         NO_WITNESS.format("no-equal-sum-split", "Unclassified", "NotBipartite")),
        ("3 1 0 0", "0", "1", False, 1, NO_WITNESS.format(
            "precheck-degree-at-least-half-sum", "Unclassified", "NotBipartite")),
        ("2 2", "0", "1", False, 1, NO_WITNESS.format(
            "precheck-degree-at-least-half-sum", "Unclassified", "NotBipartite")),
        ("1 1", "0", "1", False, 0,
         '{"realization": [[0, 0]], "reason": "trivial-(1,1)", "region": "Unclassified", '
         '"split": {"u_indices": [0], "v_indices": [1]}, "verdict": "Bipartite"}\n'),
        ("3 1 1 1", "0", "1", False, 0,
         '{"realization": [[0, 0], [0, 1], [0, 2]], "reason": "split-found", '
         '"region": "Unclassified", "split": {"u_indices": [0], "v_indices": [1, 2, 3]}, '
         '"verdict": "Bipartite"}\n'),
        ("3 2 1", "0", "1", False, 1,
         NO_WITNESS.format("gale-ryser-violation", "Unclassified", "NotBipartite")),
        ("2 2 2", "0", "1", False, 1,
         NO_WITNESS.format("min-degree-too-large", "Unclassified", "NotBipartite")),
        # the low-region rule
        ("2 2 2 2", "1/2", "1/2", False, 0,
         '{"realization": [[0, 0], [0, 1], [1, 0], [1, 1]], "reason": "split-found", '
         '"region": "LowTractable", "split": {"u_indices": [0, 2], "v_indices": [1, 3]}, '
         '"verdict": "Bipartite"}\n'),
        ("2 2 2 2 2", "2/5", "2/5", False, 1,
         NO_WITNESS.format("no-equal-sum-split", "LowTractable", "NotBipartite")),
        ("2 2 2 2", "0", "1", False, 2,
         NO_WITNESS.format("exact-search", "Unclassified", "Undecided")),
        # the exact search
        ("2 2 2 2", "0", "1", True, 0,
         '{"realization": [[0, 0], [0, 1], [1, 0], [1, 1]], "reason": "exact-search", '
         '"region": "Unclassified", "split": {"u_indices": [0, 1], "v_indices": [2, 3]}, '
         '"verdict": "Bipartite"}\n'),
        ("4 2 2 2 2", "0", "1", True, 1,
         NO_WITNESS.format("gale-ryser-violation", "Unclassified", "NotBipartite")),
        # the region of the bounds, whichever step decides
        ("4 4 2 2 1 1 1 1 2 2", "1/10", "2/5", False, 2,
         NO_WITNESS.format("exact-search", "ConditionallyHard", "Undecided")),
        ("4 4 2 2 1 1 1 1 2 2", "1/10", "2/5", True, 0,
         '{"realization": [[0, 0], [0, 1], [0, 5], [0, 6], [1, 0], [1, 2], [1, 3], [1, 4], '
         '[2, 5], [2, 6]], "reason": "exact-search", "region": "ConditionallyHard", '
         '"split": {"u_indices": [0, 1, 2], "v_indices": [3, 4, 5, 6, 7, 8, 9]}, '
         '"verdict": "Bipartite"}\n'),
        ("2 2 2", "2/3", "2/3", False, 1,
         NO_WITNESS.format("min-degree-too-large", "HighTractable", "NotBipartite")),
    ], ids=["odd-sum", "above-half", "two-at-half", "trivial", "star", "star-beside-2",
            "min-degree", "low-split", "low-no-split", "undecided", "exact-split",
            "exact-gale-ryser", "hard-undecided", "hard-exact-split", "high-min-degree"])
    def test_stdout_per_reason(self, tmp_path, capsys, text, c1, c2, exact, code, stdout):
        f = write(tmp_path, "d.txt", text + "\n")
        argv = ["decide", "--c1", c1, "--c2", c2, *(["--exact"] if exact else []), f]
        assert run(capsys, argv) == (code, stdout, "")

    def test_out_of_class(self, tmp_path, capsys):
        f = write(tmp_path, "d.txt", "1 9 9 9\n")
        code, _, err = run(capsys, ["decide", "--c1", "1/10", "--c2", "2/5", f])
        assert code == 3 and "error" in err

    ONE_EDGE = ('{"realization": [[0, 0]], "reason": "trivial-(1,1)", "region": "Unclassified", '
                '"split": {"u_indices": [0], "v_indices": [1]}, "verdict": "Bipartite"}\n')

    @pytest.mark.parametrize("data, code, stdout, stderr", [
        (b"2 2 2 2\r\n", 2,
         NO_WITNESS.format("exact-search", "Unclassified", "Undecided"), ""),
        (b"1\t1\n", 0, ONE_EDGE, ""),
        ("1\u00a01\n".encode(), 0, ONE_EDGE, ""),
        (b"1 \xff 1\n", 3, "",
         "error: 'utf-8' codec can't decode byte 0xff in position 2: invalid start byte\n"),
        (b"", 3, "", "error: empty degree sequence\n"),
        (None, 3, "", "error: [Errno 21] Is a directory: {!r}\n"),
    ], ids=["crlf", "tab", "no-break-space", "invalid-utf-8", "empty", "directory"])
    def test_file_bytes(self, tmp_path, capsys, data, code, stdout, stderr):
        # the degree file is read as bytes and decoded as text mode decodes
        # it (UTF-8 here); recorded when the file was opened in text mode
        f = str(tmp_path)
        if data is not None:
            f = str(tmp_path / "d.txt")
            (tmp_path / "d.txt").write_bytes(data)
        assert run(capsys, ["decide", "--c1", "0", "--c2", "1", f]) == (
            code, stdout, stderr.format(f))

    def test_missing_file(self, capsys):
        code, _, err = run(capsys,
                           ["decide", "--c1", "0", "--c2", "1", "/no/such/file"])
        assert code == 3

    def test_bad_rational(self, tmp_path, capsys):
        f = write(tmp_path, "d.txt", "1 1\n")
        code, _, err = run(capsys, ["decide", "--c1", "x", "--c2", "1", f])
        assert code == 3


class TestRealize:
    def test_feasible(self, tmp_path, capsys):
        f = write(tmp_path, "p.txt", "2 2\n2 2\n")
        code, out, _ = run(capsys, ["realize", f])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p bipartite 2 2 4"
        assert len(lines) == 5

    def test_infeasible(self, tmp_path, capsys):
        f = write(tmp_path, "p.txt", "3 1\n2 2\n")
        code, _, err = run(capsys, ["realize", f])
        assert code == 1 and "infeasible" in err

    def test_bad_line_count(self, tmp_path, capsys):
        f = write(tmp_path, "p.txt", "1 1\n")
        code, _, _ = run(capsys, ["realize", f])
        assert code == 3

    PAIR = "p bipartite 2 3 3\n0 0\n0 1\n1 2\n"

    @pytest.mark.parametrize("data, code, stdout, stderr", [
        (b"2 1\r\n1 1 1\r\n", 0, PAIR, ""),
        (b"2 1\r1 1 1\r", 0, PAIR, ""),
        (b"2 1\n\n1 1 1\n", 0, PAIR, ""),
        (b"2 1\x0c1 1 1", 0, PAIR, ""),
        ("2\u00a01\n1 1 1\n".encode(), 0, PAIR, ""),
        (b"2 1\n1 \xff 1 1\n", 3, "",
         "error: 'utf-8' codec can't decode byte 0xff in position 6: invalid start byte\n"),
        (b"", 3, "", "error: expected two sequence lines in {}, got 0\n"),
        (None, 3, "", "error: [Errno 21] Is a directory: {!r}\n"),
    ], ids=["crlf", "cr", "blank-line", "form-feed", "no-break-space", "invalid-utf-8",
            "empty", "directory"])
    def test_file_bytes(self, tmp_path, capsys, data, code, stdout, stderr):
        # the pair file is read as decide reads its file; recorded when it
        # was opened in text mode
        f = str(tmp_path)
        if data is not None:
            f = str(tmp_path / "p.txt")
            (tmp_path / "p.txt").write_bytes(data)
        assert run(capsys, ["realize", f]) == (code, stdout, stderr.format(f))


class TestGoldenBytes:
    """sha256 of stdout for fixed seeded inputs: the witness bytes of the
    low-region split (greedy balance and one swap, or the count-walk
    fallback when that finds none) and of the realizer must not change silently."""

    def test_decide_low_region(self, tmp_path, capsys):
        degrees = self.low_region_degrees()
        f = write(tmp_path, "d.txt", " ".join(map(str, degrees)) + "\n")
        code, out, _ = run(capsys, ["decide", "--c1", "1/10", "--c2", "1/5", f])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "5d3258aad93de4b373eaa5328f9f888eae45fb527d14fbd2b8755ecfd947069f")

    @staticmethod
    def low_region_degrees():
        rng = random.Random(600)
        degrees = [rng.randint(60, 120) for _ in range(600)]
        while sum(degrees) % 2:
            degrees[-1] = rng.randint(60, 120)
        return degrees

    def test_decide_low_region_covers_every_decode_branch(self):
        # every row of the witness above reaches past SMALL_ROW_BITS bits,
        # and its rows are of one run of consecutive v-indices (one slice),
        # of 2..SLICED_RUNS runs (joined slices) and of more (one compress
        # pass), so its digest pins the bytes of all three
        g = decide_bdr(DegreeSequence(self.low_region_degrees()),
                       ParamBounds(F(1, 10), F(1, 5))).realization
        assert min(row.bit_length() for row in g.rows) > gale_ryser.SMALL_ROW_BITS
        runs = {sum(1 for a, b in zip((None,) + row, row) if a != b - 1)
                for row in decoded_rows(g)}
        k = gale_ryser.SLICED_RUNS
        assert 1 in runs
        assert runs & set(range(2, k + 1))
        assert max(runs) > k

    def test_decide_builds_no_edge_pair(self, tmp_path, monkeypatch):
        # the seeded n = 2000 low-region witness is rendered from its row
        # bitsets: with the (u, v) pair list out of reach, decide writes the
        # same bytes as when every edge was a pair first
        rng = random.Random(2000)
        degrees = [rng.randint(200, 400) for _ in range(2000)]
        while sum(degrees) % 2:
            degrees[-1] = rng.randint(200, 400)
        f = write(tmp_path, "d.txt", " ".join(map(str, degrees)) + "\n")

        def no_pairs(*args):
            raise AssertionError("sorted_edges called")
        monkeypatch.setattr(gale_ryser.BipartiteRealization, "sorted_edges", no_pairs)
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["decide", "--c1", "1/10", "--c2", "1/5", f])
        assert code == 0 and len(out.getvalue()) == 3553151
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
            "3822e1e700abddab74ba275cf6a97ad13111d04bf65a9b57a8ff35e67bf90f67")

    def test_realize_random_graph_degrees(self, tmp_path, capsys):
        rng = random.Random(300)
        d1, d2 = [0] * 60, [0] * 80
        for u in range(60):
            for v in range(80):
                if rng.random() < 0.3:
                    d1[u] += 1
                    d2[v] += 1
        f = write(tmp_path, "p.txt", " ".join(map(str, d1)) + "\n"
                  + " ".join(map(str, d2)) + "\n")
        code, out, _ = run(capsys, ["realize", f])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7cf81f2ec37a93bc87c12a2ec325fdb098ea2a3e15e075b27f272a3af1ff5bcd")

    @pytest.mark.parametrize("c1, c2, max_sum, digest", [
        ("1/10", "2/5", 8,
         "b8a2df6efb73bc0b8e2b39c5f701a5f93034a03d5d23de73ee6459b032da18fd"),
        ("1/20", "9/20", 8,
         "1bc25bb7fd5f6b9bbe7e1fd8ead1eb24f5e0c122631a5eb1725ed07c1afcd7de"),
        ("3/20", "2/5", 6,
         "452ec96a892db815b60eaa5990cc13cff43d45f9b80882354aa8ce6be9c70370"),
    ])
    def test_reduce_corpus(self, tmp_path, capsys, c1, c2, max_sum, digest):
        # pins r, n and D' for every zero-free source with even S <= max_sum
        # and all degrees < S/2
        digest_of = hashlib.sha256()
        for k, source in enumerate(reduction_corpus(max_sum)):
            f = write(tmp_path, f"s{k}.txt", " ".join(map(str, source)) + "\n")
            code, out, _ = run(capsys, ["reduce", "--c1", c1, "--c2", c2, f])
            assert code == 0, source
            digest_of.update(out.encode())
        assert digest_of.hexdigest() == digest

    def test_oracle_corpus(self, tmp_path, capsys):
        # pins the count-vector search's verdicts, budget points and
        # messages: ``oracle`` on every source of the three reduce corpora
        # and on its padded D', and ``verify-reduction`` on every source.
        # Re-recorded when the search came to stop at the first mirrored
        # count vector: ``oracle --budget 1`` on 3 2 2 1 (in two corpora)
        # now prints false, where it passed the budget; nothing else moved
        digest_of = hashlib.sha256()
        for c1, c2, max_sum in [("1/10", "2/5", 8), ("1/20", "9/20", 8), ("3/20", "2/5", 6)]:
            bounds = ParamBounds(Fraction(c1), Fraction(c2))
            for k, source in enumerate(reduction_corpus(max_sum)):
                d_prime = build_hard_instance(DegreeSequence(source), bounds).d_prime
                src = write(tmp_path, f"s{k}.txt", " ".join(map(str, source)) + "\n")
                pad = write(tmp_path, f"p{k}.txt", " ".join(map(str, d_prime.degrees)) + "\n")
                for budget in (None, 0, 1, 3):
                    limit = [] if budget is None else ["--budget", str(budget)]
                    for argv in (["oracle", *limit, src], ["oracle", *limit, pad],
                                 ["verify-reduction", "--c1", c1, "--c2", c2, *limit, src]):
                        code, out, err = run(capsys, argv)
                        digest_of.update(f"{argv[0]}\n{budget}\n{code}\n{out}\n{err}\n".encode())
        assert digest_of.hexdigest() == (
            "716a0894975d4d9134c664ce69d05e2dc31dfe93db8524991c3bfdba3c241b53")

    def test_scan_grid(self, capsys):
        # every region, and two cells whose integer window is empty
        code, out, _ = run(capsys, ["scan", "--c1-grid", "0:3/5:1/10",
                                    "--c2-grid", "1/5:4/5:1/5", "--samples", "4",
                                    "--n", "12", "--seed", "3"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "372c65e5fda056fec39a33039f4720b5f84197ede1f981974c1cb016ed21a227")

    def test_decide_exact_corpus(self, tmp_path, capsys):
        # pins the exact search's verdicts, witnesses, budget points and
        # messages: seeded n = 20 inputs over several (c1, c2) windows, then
        # the padded (1/10, 2/5) D' of every source, most of which exceed
        # the budget
        rng = random.Random(1300)
        inputs = []
        for k in range(48):
            c1, c2 = [("0", "9/20"), ("1/20", "1/2"), ("1/10", "2/5"),
                      ("0", "3/5")][k % 4]
            lo = -(-20 * Fraction(c1).numerator // Fraction(c1).denominator)
            hi = 20 * Fraction(c2).numerator // Fraction(c2).denominator
            degrees = [rng.randint(lo, hi) for _ in range(20)]
            while sum(degrees) % 2:
                degrees[-1] = rng.randint(lo, hi)
            inputs.append((c1, c2, degrees))
        hard = ParamBounds(Fraction(1, 10), Fraction(2, 5))
        for source in reduction_corpus(8):
            d_prime = build_hard_instance(DegreeSequence(source), hard).d_prime
            inputs.append(("1/10", "2/5", d_prime.degrees))
        digest_of = hashlib.sha256()
        for k, (c1, c2, degrees) in enumerate(inputs):
            f = write(tmp_path, f"e{k}.txt", " ".join(map(str, degrees)) + "\n")
            code, out, err = run(capsys, ["decide", "--c1", c1, "--c2", c2, "--exact",
                                          "--budget", "20000", f])
            digest_of.update(f"{code}\n{out}\n{err}\n".encode())
        # re-recorded when the size subset sum came to run before the walk:
        # nine padded D' that passed the budget are answered (exit 3 -> 0),
        # one n = 20 witness moved, and the ten new outputs were checked
        # edge by edge; every other output kept its bytes
        assert digest_of.hexdigest() == (
            "eeaee67a7cdba694ba98691e983c0418496c4abf6f3a9794feaaf0240709c7e7")


def per_bit_edges(g):
    """The (u, v) edges in order, each row read bit by bit."""
    return [(u, v) for u, row in enumerate(g.rows) for v in range(g.v_count) if row >> v & 1]


def reference_decide_stdout(decision, c1, c2):
    """``decide --c1 c1 --c2 c2`` stdout as one json.dumps of the payload with
    the edge list read bit by bit (``per_bit_edges``) and the region of the
    bounds (``classify_region``)."""
    split = None
    if decision.split is not None:
        split = {"u_indices": list(decision.split.u),
                 "v_indices": list(decision.split.v)}
    g = decision.realization
    return json.dumps({
        "verdict": decision.verdict,
        "reason": decision.reason,
        "split": split,
        "realization": per_bit_edges(g) if g is not None else None,
        "region": classify_region(ParamBounds(F(c1), F(c2))).value,
    }, sort_keys=True) + "\n"


def reference_format(g):
    lines = [f"p bipartite {g.u_count} {g.v_count} {sum(g.u_degrees())}"]
    lines.extend(f"{u} {v}" for u, v in per_bit_edges(g))
    return "\n".join(lines)


@st.composite
def realizations(draw):
    v_count = draw(st.integers(0, 7))
    row = st.sets(st.integers(0, v_count - 1)) if v_count else st.just(set())
    rows = draw(st.lists(row, max_size=7))
    return pack(v_count, rows)


def g_of(v_count, *rows):
    return pack(v_count, rows)


def runs_bits(runs):
    """The bitset of the (start, stop) ``runs``."""
    return sum((1 << stop) - (1 << start) for start, stop in runs)


def decode_edge_rows(v_count):
    """One graph of the rows ``TestDecodeBits`` reads at ``v_count``: no
    bit, bit 0, bit v_count - 1, both, all bits, all but bit 0 and all but
    the top, one bit in the middle, and rows of exactly 1, ``SLICED_RUNS``
    and ``SLICED_RUNS`` + 1 runs, the last run ending at bit v_count - 1."""
    top = v_count - 1
    rows = [0, 1, 1 << top, 1 | 1 << top, (1 << v_count) - 1, (1 << v_count) - 2,
            (1 << top) - 1, 1 << v_count // 2]
    k = gale_ryser.SLICED_RUNS
    for runs in (1, k, k + 1):
        rows.append(runs_bits((v_count - 3 * i - 2, v_count - 3 * i) for i in range(runs)))
    return BipartiteRealization(v_count, rows)


EDGE_CASES = [
    g_of(3, (), (0, 2), (1,)),            # empty row first
    g_of(3, (0, 1), (), (), (2,)),        # empty rows in the middle
    g_of(3, (1,), (0, 2), ()),            # empty row last
    g_of(0, (), ()),                      # v_count 0
    g_of(4, (0, 1, 2, 3), (2,)),          # a u-vertex adjacent to every v
    g_of(5, (), (), ()),                  # no edges
    g_of(0),                              # no vertices at all
    g_of(12, (9, 10, 11), (0, 11)),       # multi-digit v-indices
    # interval rows, short enough (SMALL_ROW_BITS) for one compress pass
    g_of(5, (0, 1, 2), (4,)),             # an interval from 0; one entry at v_count - 1
    g_of(5, (2, 3, 4), (0,)),             # an interval to v_count - 1; one entry at 0
    g_of(12, (0, 1, 2, 3, 5, 6), (8, 9, 11)),  # one gap each
    # rows on both sides of the 30-bit digit boundaries, of 0, 1,
    # SLICED_RUNS and SLICED_RUNS + 1 runs: at 29..31 all take the compress
    # pass; at 59..61 the rows past SMALL_ROW_BITS bits of at most
    # SLICED_RUNS runs are sliced, and the others take the pass
    *map(decode_edge_rows, (29, 30, 31, 59, 60, 61)),
]


# one (--c1, --c2) pair per region, in RegionClass order
REGION_BOUNDS = [("1/2", "1/2"), ("3/5", "4/5"), ("1/10", "2/5"), ("0", "1")]


EMIT_PAYLOAD = {"m": {"y": [1, None], "x": "\u00e9"}, "n": 2.5, "z": False}
EMIT_ITEMS = [[], ["0"], ["[0, 1]", '{"a": [2, null]}', '"\\u00e9"', "[]"]]


@pytest.mark.parametrize("payload", [{}, EMIT_PAYLOAD], ids=["empty", "payload"])
@pytest.mark.parametrize("key, items", [(None, [])] + [
    (key, items) for key in ("a", "mm", "zz", "n") for items in EMIT_ITEMS])
def test_emit_writes_sorted_json(capsys, payload, key, items):
    # the streamed key sorts first ("a"), in the middle ("mm") or last
    # ("zz") of the payload's keys, or replaces one ("n"); the items are
    # read once, as a stream
    cli._emit(payload, key, iter(items))
    expected = payload if key is None else {**payload, key: list(map(json.loads, items))}
    assert capsys.readouterr().out == json.dumps(expected, sort_keys=True) + "\n"


class TestEdgeWriter:
    """``decide`` stdout and ``format_realization`` render edges from the
    row bitsets; both must equal the edge-list rendering byte for byte."""

    @pytest.fixture(scope="class")
    def sequence_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("writer") / "d.txt"
        path.write_text("2 2 1 1\n")
        return str(path)

    def decide_stdout(self, sequence_file, decision, c1, c2):
        out = io.StringIO()
        with mock.patch.object(cli.decider, "decide_bdr", lambda ds, bounds: decision), \
                redirect_stdout(out):
            code = main(["decide", "--c1", c1, "--c2", c2, sequence_file])
        assert code == {"Bipartite": 0, "NotBipartite": 1, "Undecided": 2}[decision.verdict]
        return out.getvalue()

    @pytest.mark.parametrize("g", EDGE_CASES)
    def test_edge_cases(self, sequence_file, g):
        split = SplitWitness(tuple(range(g.u_count)),
                             tuple(range(g.u_count, g.u_count + g.v_count)))
        decision = Decision("Bipartite", "split-found", split, g)
        bounds = REGION_BOUNDS[0]  # LowTractable
        assert (self.decide_stdout(sequence_file, decision, *bounds)
                == reference_decide_stdout(decision, *bounds))
        assert format_realization(g) == reference_format(g)

    def test_region_bounds(self):
        assert [classify_region(ParamBounds(F(c1), F(c2)))
                for c1, c2 in REGION_BOUNDS] == list(RegionClass)

    @given(g=realizations(),
           verdict_reason=st.sampled_from([
               ("Bipartite", "split-found"), ("Bipartite", "exact-search"),
               ("NotBipartite", "gale-ryser-violation"),
               ("NotBipartite", "no-equal-sum-split"), ("Undecided", "exact-search")]),
           bounds=st.sampled_from(REGION_BOUNDS),
           sides=st.lists(st.integers(0, 1), max_size=9) | st.none())
    def test_drawn_decisions(self, sequence_file, g, verdict_reason, bounds, sides):
        verdict, reason = verdict_reason
        split = None if sides is None else SplitWitness(
            tuple(i for i, s in enumerate(sides) if s == 0),
            tuple(i for i, s in enumerate(sides) if s == 1))
        decision = Decision(verdict, reason, split, g if verdict == "Bipartite" else None)
        assert (self.decide_stdout(sequence_file, decision, *bounds)
                == reference_decide_stdout(decision, *bounds))

    @given(realizations())
    @example(g_of(0))
    @example(g_of(3, (), (), ()))
    def test_format_realization(self, g):
        assert format_realization(g) == reference_format(g)

    @pytest.mark.parametrize("text, c1, c2, exact", [
        ("0 0 0", "0", "1/5", True),                     # Bipartite, no edges
        ("4 4 2 2 1 1 1 1 2 2", "1/10", "2/5", True),
        ("4 4 2 2 1 1 1 1 2 2", "1/10", "2/5", False),   # Undecided
        ("3 3 3 3 3 3 3 3 3", "1/3", "1/3", False),      # NotBipartite
        ("4 4 3 3 3 3 2 2 2 2 2 2", "1/6", "1/3", False),
        ("0 1 1", "0", "1", False),
    ])
    def test_real_decisions(self, tmp_path, capsys, text, c1, c2, exact):
        f = write(tmp_path, "d.txt", text + "\n")
        ds = DegreeSequence(tuple(map(int, text.split())))
        decision = decide_bdr(ds, ParamBounds(Fraction(c1), Fraction(c2)))
        if exact and decision.verdict == "Undecided":
            decision = decide_exact(ds)
        _, out, _ = run(capsys, ["decide", "--c1", c1, "--c2", c2,
                                 *(["--exact"] if exact else []), f])
        assert out == reference_decide_stdout(decision, c1, c2)

    def test_zero_sequence_exact(self, tmp_path, capsys):
        # an edgeless witness is an empty list; null means no witness
        f = write(tmp_path, "d.txt", "0 0 0\n")
        code, out, _ = run(capsys, ["decide", "--c1", "0", "--c2", "1/5", "--exact", f])
        assert code == 0
        assert '"realization": []' in out and json.loads(out)["realization"] == []


class TestBudget:
    """A negative --budget is a usage error, raised before any input is read
    or anything is printed."""

    @pytest.mark.parametrize("argv", [
        ["decide", "--c1", "1/10", "--c2", "2/5", "--exact", "--budget", "-5"],
        ["decide", "--c1", "1/10", "--c2", "1/5", "--budget", "-1"],
    ])
    def test_decide(self, capsys, argv):
        code, out, err = run(capsys, argv + ["/no/such/file"])
        assert code == 3 and out == "" and "budget must be >= 0" in err

    def test_verify_reduction(self, capsys):
        code, out, err = run(capsys, ["verify-reduction", "--c1", "1/10", "--c2", "2/5",
                                      "--budget", "-1", "/no/such/file"])
        assert code == 3 and out == "" and "budget must be >= 0" in err

    def test_scan(self, capsys):
        code, out, err = run(capsys, ["scan", "--c1-grid", "0:1/5:1/10",
                                      "--c2-grid", "1/5:2/5:1/10", "--budget", "-2"])
        assert code == 3 and out == "" and "budget must be >= 0" in err

    def test_oracle(self, capsys):
        code, out, err = run(capsys, ["oracle", "--budget", "-1", "/no/such/file"])
        assert code == 3 and out == "" and "budget must be >= 0" in err

    @pytest.mark.parametrize("command", [["oracle"],
                                         ["verify-reduction", "--c1", "1/10", "--c2", "2/5"]],
                             ids=lambda argv: argv[0])
    def test_oracle_default(self, tmp_path, capsys, command):
        # the half graph of 1..32 (each value twice) has more than 100,000
        # equal-sum count vectors before its first bigraphic one; with no
        # --budget both count-vector searches stop at ORACLE_BUDGET
        f = write(tmp_path, "d.txt", " ".join(str(v) for v in range(1, 33) for _ in "uv"))
        code, out, err = run(capsys, [*command, f])
        assert (code, out, err) == (
            3, "", "budget exceeded: examined more than 100000 split count vectors\n")

    def test_walk_refused_before_any_bitset(self, tmp_path, capsys, monkeypatch):
        # 1..4000 and a million 1s: sigma/2 = 4,501,000 is within
        # MAX_HALF_SUM, but the walk would hold two checkpoints and a block
        # of 2004 rows, 2006 bitsets of 4,501,001 bits; the size tables
        # are over their cap too, so no bitset is built at all
        def no_bitsets(*args):
            raise AssertionError("bitsets built")
        monkeypatch.setattr(cli.partition, "_run_sums", no_bitsets)
        f = write(tmp_path, "d.txt", " ".join(map(str, [*range(1, 4001), *[1] * 1000000])))
        assert run(capsys, EXACT_0_1 + ["1", f]) == (
            3, "", "error: count walk of 9029008006 bits exceeds the limit of 1073741824\n")

    def test_zero_budget_keeps_its_meaning(self, tmp_path, capsys):
        # the size subset sum's one proposal fails Gale-Ryser, and the walk
        # rules out splits before its first accepted count vector
        f = write(tmp_path, "d.txt", "3 3 1 7 5 2 5 2 5 5 2 4\n")
        code, out, err = run(capsys, ["decide", "--c1", "0", "--c2", "1", "--exact",
                                      "--budget", "0", f])
        assert code == 3 and out == "" and err.startswith("budget exceeded")
        code, out, _ = run(capsys, ["decide", "--c1", "0", "--c2", "1", "--exact",
                                    "--budget", "0", write(tmp_path, "e.txt", "0 1 1\n")])
        assert code == 0 and json.loads(out)["verdict"] == "Bipartite"

    @pytest.mark.parametrize("degrees, code, verdict", [
        ("7 5 3 5 4 5 3 5 5 4 1 1", 0, "Bipartite"),  # its first proposal passes
        ("4 2 2 2 2", 1, "NotBipartite")])  # no split meets Gale-Ryser at k = 1
    def test_settled_before_the_walk(self, tmp_path, capsys, degrees, code, verdict):
        # an input the size subset sum settles is answered at any budget
        f = write(tmp_path, "d.txt", degrees + "\n")
        got, out, err = run(capsys, ["decide", "--c1", "0", "--c2", "1", "--exact",
                                     "--budget", "0", f])
        assert (got, json.loads(out)["verdict"], err) == (code, verdict, "")


NOT_BIGRAPHIC = TestDecide.NO_WITNESS.format("gale-ryser-violation", "Unclassified",
                                             "NotBipartite")


@pytest.mark.parametrize("text, argv, code, stdout, stderr", [
    # the size subset sum's one proposal fails Gale-Ryser, and the count
    # walk cuts off 10 index sets, at least 5 splits, before its first
    # accepted count vector
    ("3 3 1 7 5 2 5 2 5 5 2 4", EXACT_0_1 + ["4"], 3, "",
     "budget exceeded: examined more than 4 equal-sum splits\n"),
    ("3 3 1 7 5 2 5 2 5 5 2 4", EXACT_0_1 + ["5"], 0,
     '{"realization": [[0, 3], [0, 4], [0, 6], [1, 0], [1, 1], [1, 2], [1, 3], [1, 4], '
     '[1, 5], [1, 6], [2, 0], [2, 2], [2, 3], [2, 4], [2, 6], [3, 3], [3, 4], [4, 0], '
     '[4, 3], [4, 4], [4, 5], [4, 6]], "reason": "exact-search", "region": "Unclassified", '
     '"split": {"u_indices": [0, 3, 4, 5, 6], "v_indices": [1, 2, 7, 8, 9, 10, 11]}, '
     '"verdict": "Bipartite"}\n', ""),
    # each equal-sum split fails Gale-Ryser at k = 1: no walk
    ("4 2 2 2 2", EXACT_0_1 + ["0"], 1, NOT_BIGRAPHIC, ""),
    # the walk enters no first count below half its run and counts 3 cut
    # index sets
    ("4 3 3 3 1 1 1", EXACT_0_1 + ["1"], 3, "",
     "budget exceeded: examined more than 1 equal-sum splits\n"),
    ("4 3 3 3 1 1 1", EXACT_0_1 + ["2"], 1, NOT_BIGRAPHIC, ""),
    # the oracle stops at its fifth count vector, the first below its mirror
    ("5 2 4 3 3 1 1 1", ["oracle", "--budget", "4"], 1, '{"bipartite": false}\n', ""),
    ("2 2 2 2", EXACT_0_1 + ["1"], 0,
     '{"realization": [[0, 0], [0, 1], [1, 0], [1, 1]], "reason": "exact-search", '
     '"region": "Unclassified", "split": {"u_indices": [0, 1], "v_indices": [2, 3]}, '
     '"verdict": "Bipartite"}\n', ""),
    # input #159 of the benchmark's exact-search workload
    ("8 11 10 8 10 5 5 7 10 4 6 9 6 5 8 10 7 8 4 11",
     ["decide", "--c1", "1/5", "--c2", "11/20", "--exact", "--budget", "20000"], 0,
     '{"realization": ['
     '[0, 0], [0, 1], [0, 2], [0, 3], [0, 4], [0, 5], [0, 6], [0, 7], '
     '[1, 0], [1, 1], [1, 2], [1, 3], [1, 4], [1, 5], [1, 6], [1, 7], '
     '[2, 0], [2, 1], [2, 2], [2, 6], [2, 7], '
     '[3, 0], [3, 3], [3, 4], [3, 6], [3, 7], '
     '[4, 0], [4, 1], [4, 2], [4, 3], [4, 4], [4, 6], [4, 7], '
     '[5, 0], [5, 1], [5, 2], [5, 3], '
     '[6, 0], [6, 1], [6, 2], [6, 3], [6, 6], [6, 7], '
     '[7, 0], [7, 1], [7, 2], [7, 3], [7, 4], [7, 7], '
     '[8, 0], [8, 1], [8, 2], [8, 3], [8, 4], [8, 5], [8, 6], [8, 7], '
     '[9, 0], [9, 1], [9, 2], [9, 3], [9, 4], [9, 6], [9, 7], '
     '[10, 0], [10, 1], [10, 2], [10, 3], [10, 4], [10, 5], [10, 6], [10, 7], '
     '[11, 4], [11, 5], [11, 6], [11, 7]], "reason": "exact-search", "region": "Unclassified", '
     '"split": {"u_indices": [0, 3, 5, 6, 7, 9, 10, 12, 14, 16, 17, 18], '
     '"v_indices": [1, 2, 4, 8, 11, 13, 15, 19]}, "verdict": "Bipartite"}\n', ""),
    # the rows of these pairs span at most 11 bits, so each takes one
    # compress pass of the row decoder: one run in both rows; a gap in
    # row 1; six runs in row 0 ({0, 2, ..., 10}) and one in rows 1 and 2
    ("2 1\n1 1 1", ["realize"], 0, "p bipartite 2 3 3\n0 0\n0 1\n1 2\n", ""),
    ("2 2\n2 1 1", ["realize"], 0, "p bipartite 2 3 4\n0 0\n0 1\n1 0\n1 2\n", ""),
    ("6 6 5\n2 1 2 1 2 1 2 1 2 1 2", ["realize"], 0,
     "p bipartite 3 11 17\n0 0\n0 2\n0 4\n0 6\n0 8\n0 10\n1 0\n1 1\n1 2\n1 3\n1 4\n1 5\n"
     "2 6\n2 7\n2 8\n2 9\n2 10\n", ""),
], ids=["cut-budget-4", "cut-budget-5", "refuted-budget-0", "mirror-budget-1",
        "mirror-budget-2", "oracle-mirror-budget-4", "square-budget-1", "exact-search-159",
        "realize-one-run", "realize-gap", "realize-six-runs"])
def test_pinned_run(tmp_path, capsys, text, argv, code, stdout, stderr):
    f = write(tmp_path, "d.txt", text + "\n")
    assert run(capsys, argv + [f]) == (code, stdout, stderr)


def test_stall_budget_point(tmp_path, capsys):
    # the padded D' of 1 1 1 1 at (3/20, 2/5), n' = 1604 (see test_decider's TestStall)
    d_prime = build_hard_instance(DegreeSequence((1, 1, 1, 1)),
                                  ParamBounds(F(3, 20), F(2, 5))).d_prime
    f = write(tmp_path, "d.txt", " ".join(map(str, d_prime.degrees)) + "\n")
    assert run(capsys, ["decide", "--c1", "3/20", "--c2", "2/5", "--exact", "--budget", "20000",
                        f]) == (3, "", "budget exceeded: examined more than 20000 equal-sum splits\n")


class TestLbds:
    def test_worked_example(self, capsys):
        assert run(capsys, ["lbds", "5", "10", "3", "1"]) == (0, "3 3 2 1 1\n", "")

    def test_empty_class(self, capsys):
        code, _, err = run(capsys, ["lbds", "3", "20", "4", "1"])
        assert code == 3


class TestReduce:
    def test_worked_example(self, tmp_path, capsys):
        f = write(tmp_path, "d.txt", "2 1 1 1 1\n")
        code, out, _ = run(capsys, ["reduce", "--c1", "1/10", "--c2", "2/5", f])
        assert code == 0
        payload = json.loads(out)
        assert payload["r"] == "1/2"
        assert payload["c1_tilde"] == "1/8"
        assert payload["c2_tilde"] == "3/8"
        assert payload["n"] == 48
        assert len(payload["d_prime"]) == 54
        assert len(payload["roles"]) == 54
        kinds = {role["kind"] for role in payload["roles"]}
        assert kinds == {"big", "shifted", "filler", "small"}

    def test_not_hard_region(self, tmp_path, capsys):
        f = write(tmp_path, "d.txt", "2 1 1 1 1\n")
        code, _, err = run(capsys, ["reduce", "--c1", "1/3", "--c2", "1/3", f])
        assert code == 3

    def test_oversized_padding(self, tmp_path, capsys):
        # a 24-byte source whose padding n is 1.2e9 is a typed error; were
        # the guard gone, the first padding constant fails the test instead
        # of a build of 1.2e9 entries
        f = write(tmp_path, "d.txt", "1000000 1000000 1000000\n")
        with mock.patch.object(cli.reduction, "_exact_quotient", side_effect=AssertionError):
            code, out, err = run(capsys, ["reduce", "--c1", "3/20", "--c2", "2/5", f])
        assert (code, out) == (3, "")
        assert err == ("error: padded sequence of n + S = 1203000000 entries "
                       "exceeds the limit of 1048576\n")

    @pytest.mark.parametrize("c1, c2, text", [("1/10", "2/5", "2 1 1 1 1"),
                                              ("1/20", "9/20", "4 3 3 2 2 2"),
                                              ("3/20", "2/5", "1 1 1 1")])
    @pytest.mark.parametrize("split_blocks", [False, True])
    def test_bytes_equal_one_sorted_dump(self, tmp_path, capsys, c1, c2, text, split_blocks):
        # each block's role is rendered once and repeated over the block;
        # 1 1 1 1 has an empty filler block.  With split_blocks every block
        # is cut in two around an empty run of its kind, and the bytes,
        # which depend only on the expanded roles, stay the same
        inst = build_hard_instance(DegreeSequence(tuple(map(int, text.split()))),
                                   ParamBounds(Fraction(c1), Fraction(c2)))
        roles = [{"kind": kind, "source_index": index}
                 for kind, index, _, count in inst.blocks for _ in range(count)]
        if split_blocks:
            inst = dataclasses.replace(inst, blocks=tuple(
                (kind, index, d, part) for kind, index, d, count in inst.blocks
                for part in (count // 2, 0, count - count // 2)))
        f = write(tmp_path, "d.txt", text + "\n")
        with mock.patch.object(cli.reduction, "build_hard_instance", lambda ds, bounds: inst):
            code, out, _ = run(capsys, ["reduce", "--c1", c1, "--c2", c2, f])
        assert code == 0
        assert out == json.dumps({
            "r": str(inst.r), "c1_tilde": str(inst.c1_tilde), "c2_tilde": str(inst.c2_tilde),
            "n": inst.n, "d_prime": list(inst.d_prime.degrees), "roles": roles},
            sort_keys=True) + "\n"

    def test_zero_stripped_source_same_bytes(self, tmp_path, capsys):
        # source_index counts positions in the zero-stripped source, so the
        # zeros of the input leave every byte as it is
        outs = []
        for k, text in enumerate(["2 0 1 1 1 0 1", "2 1 1 1 1"]):
            f = write(tmp_path, f"d{k}.txt", text + "\n")
            code, out, _ = run(capsys, ["reduce", "--c1", "1/10", "--c2", "2/5", f])
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert hashlib.sha256(outs[0].encode()).hexdigest() == (
            "2a78e31ba11cdc790de701ed5d60483964048199ca823718fb75aa898380219e")


class TestVerifyReduction:
    def test_agreeing(self, tmp_path, capsys):
        f = write(tmp_path, "d.txt", "2 1 1 1 1\n")
        code, out, _ = run(capsys,
                           ["verify-reduction", "--c1", "1/10", "--c2", "2/5", f])
        assert code == 0
        payload = json.loads(out)
        assert payload["agree"] is True
        assert payload["source_realizable"] is True
        assert payload["padded_realizable"] is True

    def test_far_bound(self, tmp_path, capsys):
        # n' = 6416 with six distinct degrees: the unpruned count-vector
        # search ran for more than 60 s on the padded side
        f = write(tmp_path, "d.txt", "4 3 3 2 2 2\n")
        code, out, _ = run(capsys, ["verify-reduction", "--c1", "3/20", "--c2", "2/5", f])
        assert code == 0
        assert out == ('{"agree": true, "n": 6400, "padded_realizable": false, '
                       '"r": "9/20", "source_realizable": false}\n')


class TestScan:
    ARGS = ["scan", "--c1-grid", "1/10:3/10:1/10", "--c2-grid", "3/10:2/5:1/10",
            "--samples", "5", "--n", "10", "--seed", "7"]

    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, self.ARGS)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "c1,c2,region,frac_split,frac_bipartite,samples"
        assert len(lines) > 1
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 6
            assert 0.0 <= float(fields[3]) <= 1.0
            assert float(fields[4]) <= float(fields[3]) + 1e-12
            if fields[2] == "LowTractable":
                assert fields[3] == fields[4]
            if fields[2] == "HighTractable":
                assert float(fields[4]) == 0.0

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, self.ARGS)
        _, out2, _ = run(capsys, self.ARGS)
        assert out1 == out2

    def test_high_cell_never_bipartite(self, capsys):
        code, out, _ = run(capsys, ["scan", "--c1-grid", "3/5:3/5:1",
                                    "--c2-grid", "7/10:7/10:1",
                                    "--samples", "5", "--n", "10", "--seed", "1"])
        assert code == 0
        line = out.strip().splitlines()[1]
        fields = line.split(",")
        assert fields[2] == "HighTractable"
        assert float(fields[4]) == 0.0
        assert int(fields[5]) > 0

    def test_cell_without_graphic_sample(self, capsys):
        # the one degree of n = 1 at c1 = c2 = 1 is 1, an odd sum: no sample
        code, out, _ = run(capsys, ["scan", "--c1-grid", "1:1:1", "--c2-grid", "1:1:1",
                                    "--n", "1", "--samples", "2"])
        assert code == 0
        assert out.splitlines()[1:] == ["1,1,HighTractable,0.0,0.0,0"]

    def test_bad_grid(self, capsys):
        code, _, _ = run(capsys, ["scan", "--c1-grid", "oops",
                                  "--c2-grid", "0:1:1"])
        assert code == 3
        code, out, err = run(capsys, ["scan", "--c1-grid", "0:1/5:0",
                                      "--c2-grid", "0:1:1"])
        assert code == 3 and out == "" and "grid step must be positive" in err

    def test_negative_n_rejected_before_header(self, capsys):
        code, out, err = run(capsys, ["scan", "--c1-grid", "0:1/5:1/10",
                                      "--c2-grid", "1/5:2/5:1/10", "--n", "-3"])
        assert code == 3 and out == "" and "n must be >= 0" in err
        code, out, err = run(capsys, ["scan", "--c1-grid", "0:1/5:1/10",
                                      "--c2-grid", "1/5:2/5:1/10", "--samples", "0"])
        assert code == 3 and out == "" and "samples must be >= 1" in err

    def test_oversized_grid_rejected_before_sampling(self, capsys):
        code, out, err = run(capsys, ["scan", "--c1-grid", "0:1:1/1000000000",
                                      "--c2-grid", "0:1:1"])
        assert code == 3 and out == "" and "1000000001 points" in err

    @pytest.mark.parametrize("c1_grid, c2_grid", [("0:0:1", "1/2:3/2:1/2"),
                                                  ("-1/10:1/10:1/10", "1/2:1/2:1")])
    def test_out_of_range_grid_rejected_before_header(self, capsys, c1_grid, c2_grid):
        # the "=" form; "--c1-grid -1/10:..." reads the same value
        code, out, err = run(capsys, ["scan", f"--c1-grid={c1_grid}", f"--c2-grid={c2_grid}",
                                      "--samples", "1", "--n", "4"])
        assert code == 3 and out == "" and "outside [0, 1]" in err

    def test_grid_points(self):
        assert _parse_grid("1/10:3/10:1/10") == [F(1, 10), F(1, 5), F(3, 10)]
        assert _parse_grid("1/2:1/4:1/10") == []
        assert len(_parse_grid(f"0:1:1/{MAX_GRID_POINTS - 1}")) == MAX_GRID_POINTS


class TestOracle:
    def test_positive(self, tmp_path, capsys):
        f = write(tmp_path, "d.txt", "2 2 2 2 2 2\n")
        code, out, _ = run(capsys, ["oracle", f])
        assert code == 0 and json.loads(out)["bipartite"] is True

    def test_negative(self, tmp_path, capsys):
        f = write(tmp_path, "d.txt", "5 1 1 1\n")
        code, out, _ = run(capsys, ["oracle", f])
        assert code == 1 and json.loads(out)["bipartite"] is False

    def test_half_sum_over_the_limit(self, tmp_path, capsys):
        # a 28-byte file whose sum bitsets would take 10**12 bits: a typed
        # error, not a MemoryError read as oracle's "false" exit code
        f = write(tmp_path, "d.txt", "1000000000000 1000000000000\n")
        assert run(capsys, ["oracle", f]) == (
            3, "", "error: half degree sum sigma/2 = 1000000000000 exceeds the limit of 8388608\n")


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 3

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 3

    @pytest.mark.parametrize("argv", [["decide", "--c1", "0", "--c2", "1"], ["realize"],
                                      ["reduce", "--c1", "1/10", "--c2", "2/5"],
                                      ["verify-reduction", "--c1", "1/10", "--c2", "2/5"],
                                      ["oracle"]], ids=lambda argv: argv[0])
    def test_directory_as_file(self, tmp_path, capsys, argv):
        code, out, err = run(capsys, argv + [str(tmp_path)])
        assert code == 3 and out == "" and err.startswith("error:")

    # the cut input: exit 3 at --budget 4, 0 at --budget 5 (see TestBudget)
    CUT = "3 3 1 7 5 2 5 2 5 5 2 4\n"
    GRID = ["--c2-grid", "1/5:2/5:1/10", "--samples", "2", "--n", "8"]

    @pytest.mark.parametrize("form, canonical", [
        (["decide", "--c1=0", "--c2=1", "FILE"], ["decide", "--c1", "0", "--c2", "1", "FILE"]),
        (["decide", "FILE", "--c1", "0", "--exact", "--c2", "1"],
         ["decide", "--c1", "0", "--c2", "1", "--exact", "FILE"]),
        (["decide", "--c1", "0", "--c2", "1", "--exact", "--budget", "4", "--budget", "5", "FILE"],
         ["decide", "--c1", "0", "--c2", "1", "--exact", "--budget", "5", "FILE"]),
        (["scan", "--c1-grid=0:1/5:1/10", *GRID], ["scan", "--c1-grid", "0:1/5:1/10", *GRID]),
    ], ids=["equals", "file-first", "last-budget-wins", "scan-equals"])
    def test_accepted_forms(self, tmp_path, capsys, form, canonical):
        f = write(tmp_path, "cut.txt", self.CUT)
        expected = run(capsys, [f if arg == "FILE" else arg for arg in canonical])
        assert run(capsys, [f if arg == "FILE" else arg for arg in form]) == expected
        assert expected[1]  # the canonical argv prints its answer

    @pytest.mark.parametrize("argv", [
        ["frobnicate", "/no/such/file"],
        ["decide", "--c1", "0", "--c2", "1", "--frob", "/no/such/file"],
        ["decide", "--c1", "0", "--c2", "1", "--ex", "/no/such/file"],  # no abbreviations
        ["decide", "--c2", "1", "/no/such/file", "--c1"],
        ["decide", "--c1", "0", "/no/such/file"],
        ["decide", "--c1", "0", "--c2", "1", "/no/such/file", "/no/such/file"],
        ["decide", "--c1", "0", "--c2", "1", "--exact=1", "/no/such/file"],
        ["decide", "--c1", "0", "--c2", "1", "--budget", "1_0", "/no/such/file"],
        ["decide", "--c1", "0", "--c2", "1", "--budget", "\u0663", "/no/such/file"],
        ["scan", "--c1-grid", "0:1:1", "--c2-grid", "0:1:1", "--n", " 4 "],
        ["scan", "--c1-grid", "0:1:1", "--c2-grid", "0:1:1", "--samples", "+1"],
        ["lbds", "5", "1_0", "3", "1"],
        ["decide", "--c1", "x", "--c2", "1", "/no/such/file"],
        # n entries are built per sequence: n is held to reduce's entry limit
        ["lbds", "1048577", "0", "0", "0"],
        ["scan", "--c1-grid", "0:0:1", "--c2-grid", "1:1:1", "--n", "1048577"],
    ], ids=["unknown-command", "unknown-option", "abbreviation", "no-value", "missing-c2",
            "extra-positional", "flag-value", "budget-underscore", "budget-arabic-indic-digit",
            "n-spaces", "samples-plus", "lbds-underscore", "bad-rational", "lbds-n-over-limit",
            "scan-n-over-limit"])
    def test_rejected_before_any_input(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "No such file" not in err

    def test_out_of_memory_is_no_verdict(self, tmp_path, capsys, monkeypatch):
        # exit 1 is decide's NotBipartite: memory run out exits 3
        def no_memory(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(cli.decider, "decide_exact", no_memory)
        f = write(tmp_path, "d.txt", "2 2 2 2\n")
        assert run(capsys, ["decide", "--c1", "0", "--c2", "1", "--exact", f]) == (
            3, "", "error: out of memory\n")

    @pytest.mark.parametrize("argv", [["-h"], ["--help"]])
    def test_help_names_every_command(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        for command in ("decide", "realize", "lbds", "reduce", "verify-reduction", "scan",
                        "oracle"):
            assert f"usage: bdr {command} " in out

    def test_command_help_names_every_option(self, capsys):
        code, out, err = run(capsys, ["decide", "-h"])
        assert (code, err) == (0, "")
        assert out.split("\n")[0] == \
            "usage: bdr decide --c1 C1 --c2 C2 [--exact] [--budget BUDGET] FILE"
