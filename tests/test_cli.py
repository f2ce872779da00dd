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

from bdr import (BipartiteRealization, DegreeSequence, ParamBounds, decide_bdr,
                 decide_exact, format_realization)
from bdr import cli, gale_ryser
from bdr.cli import MAX_GRID_POINTS, _parse_grid, main
from bdr.decider import Decision, RegionClass
from bdr.partition import SplitWitness
from bdr.reduction import Role, build_hard_instance
from conftest import decoded_rows, pack, reduction_corpus

F = Fraction


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


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

    def test_out_of_class(self, tmp_path, capsys):
        f = write(tmp_path, "d.txt", "1 9 9 9\n")
        code, _, err = run(capsys, ["decide", "--c1", "1/10", "--c2", "2/5", f])
        assert code == 3 and "error" in err

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
        # the witness above has rows of one run of consecutive v-indices (one
        # slice), of 2..SLICED_RUNS runs (joined slices) and of more (one
        # compress pass), so its digest pins the bytes of all three
        g = decide_bdr(DegreeSequence(self.low_region_degrees()),
                       ParamBounds(F(1, 10), F(1, 5))).realization
        runs = {sum(1 for a, b in zip((None,) + row, row) if a != b - 1)
                for row in decoded_rows(g)}
        k = gale_ryser.SLICED_RUNS
        assert 1 in runs
        assert runs & set(range(2, k + 1))
        assert max(runs) > k

    def test_decide_decodes_no_row(self, tmp_path, monkeypatch):
        # the seeded n = 2000 low-region witness is rendered from its row
        # bitsets: with the row decoder out of reach, decide writes the same
        # bytes as when every row was decoded to a tuple first
        rng = random.Random(2000)
        degrees = [rng.randint(200, 400) for _ in range(2000)]
        while sum(degrees) % 2:
            degrees[-1] = rng.randint(200, 400)
        f = write(tmp_path, "d.txt", " ".join(map(str, degrees)) + "\n")

        def no_decode(*args):
            raise AssertionError("_decode_bits called")
        monkeypatch.setattr(gale_ryser, "_decode_bits", no_decode)
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


def reference_decide_stdout(decision):
    """``decide`` stdout as one json.dumps of the payload with the edge list
    read bit by bit (``per_bit_edges``)."""
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
        "region": decision.region.value if decision.region is not None else None,
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
    # interval rows, which are rendered as one slice of the v-index strings
    g_of(5, (0, 1, 2), (4,)),             # an interval from 0; one entry at v_count - 1
    g_of(5, (2, 3, 4), (0,)),             # an interval to v_count - 1; one entry at 0
    g_of(12, (0, 1, 2, 3, 5, 6), (8, 9, 11)),  # one gap each
    # rows on both sides of the 30-bit digit boundaries, of 0, 1,
    # SLICED_RUNS and SLICED_RUNS + 1 runs: both rendering branches
    *map(decode_edge_rows, (29, 30, 31, 59, 60, 61)),
]


class TestEdgeWriter:
    """``decide`` stdout and ``format_realization`` render edges from the
    row bitsets; both must equal the edge-list rendering byte for byte."""

    @pytest.fixture(scope="class")
    def sequence_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("writer") / "d.txt"
        path.write_text("2 2 1 1\n")
        return str(path)

    def decide_stdout(self, sequence_file, decision):
        out = io.StringIO()
        with mock.patch.object(cli.decider, "decide_bdr", lambda ds, bounds: decision), \
                redirect_stdout(out):
            code = main(["decide", "--c1", "0", "--c2", "1", sequence_file])
        assert code == {"Bipartite": 0, "NotBipartite": 1, "Undecided": 2}[decision.verdict]
        return out.getvalue()

    @pytest.mark.parametrize("g", EDGE_CASES)
    def test_edge_cases(self, sequence_file, g):
        split = SplitWitness(tuple(range(g.u_count)),
                             tuple(range(g.u_count, g.u_count + g.v_count)))
        decision = Decision("Bipartite", "split-found", split, g, RegionClass.LOW_TRACTABLE)
        assert self.decide_stdout(sequence_file, decision) == reference_decide_stdout(decision)
        assert format_realization(g) == reference_format(g)

    @given(g=realizations(),
           verdict_reason=st.sampled_from([
               ("Bipartite", "split-found"), ("Bipartite", "exact-search"),
               ("NotBipartite", "gale-ryser-violation"),
               ("NotBipartite", "no-equal-sum-split"), ("Undecided", "exact-search")]),
           region=st.sampled_from([None, *RegionClass]),
           sides=st.lists(st.integers(0, 1), max_size=9) | st.none())
    def test_drawn_decisions(self, sequence_file, g, verdict_reason, region, sides):
        verdict, reason = verdict_reason
        split = None if sides is None else SplitWitness(
            tuple(i for i, s in enumerate(sides) if s == 0),
            tuple(i for i, s in enumerate(sides) if s == 1))
        decision = Decision(verdict, reason, split,
                            g if verdict == "Bipartite" else None, region)
        assert self.decide_stdout(sequence_file, decision) == reference_decide_stdout(decision)

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
            decision = decide_exact(ds).with_region(decision.region)
        _, out, _ = run(capsys, ["decide", "--c1", c1, "--c2", c2,
                                 *(["--exact"] if exact else []), f])
        assert out == reference_decide_stdout(decision)

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


class TestLbds:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, ["lbds", "5", "10", "3", "1"])
        assert code == 0
        assert out.strip() == "3 3 2 1 1"

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

    @pytest.mark.parametrize("c1, c2, text", [("1/10", "2/5", "2 1 1 1 1"),
                                              ("1/20", "9/20", "4 3 3 2 2 2"),
                                              ("3/20", "2/5", "1 1 1 1")])
    @pytest.mark.parametrize("fresh_roles", [False, True])
    def test_bytes_equal_one_sorted_dump(self, tmp_path, capsys, c1, c2, text, fresh_roles):
        # each distinct Role object is rendered once; with fresh_roles no
        # two entries share one, though many are equal
        inst = build_hard_instance(DegreeSequence(tuple(map(int, text.split()))),
                                   ParamBounds(Fraction(c1), Fraction(c2)))
        if fresh_roles:
            inst = dataclasses.replace(inst, roles=tuple(
                Role(role.kind, role.source_index) for role in inst.roles))
        f = write(tmp_path, "d.txt", text + "\n")
        with mock.patch.object(cli.reduction, "build_hard_instance", lambda ds, bounds: inst):
            code, out, _ = run(capsys, ["reduce", "--c1", c1, "--c2", c2, f])
        assert code == 0
        assert out == json.dumps({
            "r": str(inst.r), "c1_tilde": str(inst.c1_tilde), "c2_tilde": str(inst.c2_tilde),
            "n": inst.n, "d_prime": list(inst.d_prime.degrees),
            "roles": [{"kind": role.kind, "source_index": role.source_index}
                      for role in inst.roles]}, sort_keys=True) + "\n"


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
    ], ids=["unknown-command", "unknown-option", "abbreviation", "no-value", "missing-c2",
            "extra-positional", "flag-value", "budget-underscore", "budget-arabic-indic-digit",
            "n-spaces", "samples-plus", "lbds-underscore", "bad-rational"])
    def test_rejected_before_any_input(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "No such file" not in err

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
