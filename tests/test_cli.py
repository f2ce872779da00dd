import hashlib
import json
import random
from fractions import Fraction

import pytest

from bdr import DegreeSequence, ParamBounds, decide_bdr
from bdr.cli import MAX_GRID_POINTS, _parse_grid, main

F = Fraction


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _partitions(rem, largest):
    if rem == 0:
        yield ()
        return
    for first in range(min(rem, largest), 0, -1):
        for rest in _partitions(rem - first, first):
            yield (first,) + rest


def reduction_corpus(max_sum):
    """Zero-free multisets with even S <= max_sum and every degree < S/2."""
    return [p for s in range(4, max_sum + 1, 2) for p in _partitions(s, s // 2 - 1)]


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
            [u, v] for u, nbrs in enumerate(g.neighbors) for v in nbrs]

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
    split DP and the realizer must not change silently."""

    def test_decide_low_region(self, tmp_path, capsys):
        rng = random.Random(600)
        degrees = [rng.randint(60, 120) for _ in range(600)]
        while sum(degrees) % 2:
            degrees[-1] = rng.randint(60, 120)
        f = write(tmp_path, "d.txt", " ".join(map(str, degrees)) + "\n")
        code, out, _ = run(capsys, ["decide", "--c1", "1/10", "--c2", "1/5", f])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0216617c60779c3a1882b0eb715cbbfdc091e92072ff5cb8621fa26dcd9028a5")

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

    def test_scan_grid(self, capsys):
        # every region, and two cells whose integer window is empty
        code, out, _ = run(capsys, ["scan", "--c1-grid", "0:3/5:1/10",
                                    "--c2-grid", "1/5:4/5:1/5", "--samples", "4",
                                    "--n", "12", "--seed", "3"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "372c65e5fda056fec39a33039f4720b5f84197ede1f981974c1cb016ed21a227")


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

    def test_negative_n_rejected_before_header(self, capsys):
        code, out, err = run(capsys, ["scan", "--c1-grid", "0:1/5:1/10",
                                      "--c2-grid", "1/5:2/5:1/10", "--n", "-3"])
        assert code == 3 and out == "" and "n must be >= 0" in err

    def test_oversized_grid_rejected_before_sampling(self, capsys):
        code, out, err = run(capsys, ["scan", "--c1-grid", "0:1:1/1000000000",
                                      "--c2-grid", "0:1:1"])
        assert code == 3 and out == "" and "1000000001 points" in err

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
