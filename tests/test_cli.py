import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import algotune
from algotune import cli
from algotune.cli import dispatch
from algotune.piecewise import PiecewiseFunction1D
from algotune.seqalign import AffineParams, Sequence, affine_align


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bounds_oscillation(capsys):
    code, out, _ = run_cli(capsys, "bounds", "oscillation", "--B", "2")
    assert code == 0
    assert out.strip() == "2"


def test_bounds_pdim_and_spa(capsys):
    code, out, _ = run_cli(capsys, "bounds", "pdim", "--vc", "1", "--pdim", "0")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run_cli(capsys, "bounds", "spa", "--N", "1", "--delta", "0.01")
    assert code == 0
    assert float(out) == pytest.approx(3.5174, abs=1e-3)


def test_bounds_pdim_search_is_logarithmic_in_the_answer(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "bounds", "pdim", "--vc", "1000000000", "--pdim", "3")
    assert time.perf_counter() - start < 1.0  # a one-step scan would take hours
    assert code == 0 and out == "36531101348\n"
    code, out, _ = run_cli(capsys, "bounds", "pdim", "--vc", "1000000", "--pdim", "3")
    assert code == 0 and out == "26079167\n"


@pytest.mark.parametrize("argv,want", [
    (("spa", "--N", "10"), "7.21907101\n"),
    (("finite", "--n", "3", "--N", "10"), "6.07708401\n"),
])
def test_bounds_at_a_subnormal_delta_are_finite(capsys, argv, want):
    code, out, _ = run_cli(capsys, "bounds", *argv, "--delta", "1e-320")
    assert code == 0 and out == want


def test_unknown_subcommand_exits_2(capsys):
    assert dispatch(["frobnicate"]) == 2


def test_align_run_and_decompose(tmp_path, capsys):
    fasta = tmp_path / "pair.fa"
    fasta.write_text(">x\nACGT\n>y\nAGT\n")
    code, out, _ = run_cli(
        capsys, "align", "run", "--input", str(fasta), "--rho2", "0.5"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["matches"] == 3
    code, out, _ = run_cli(
        capsys, "align", "decompose", "--input", str(fasta), "--rho-max", "2"
    )
    assert code == 0
    decomp = json.loads(out)
    assert decomp["pieces"]


def test_align_lb_verify(capsys):
    code, out, _ = run_cli(capsys, "align", "lb-verify", "--n", "32")
    assert code == 0
    assert "shattered=true" in out
    assert "k=3" in out and "N=2" in out


def test_lb_verify_failures_name_the_missing_pattern(capsys, monkeypatch):
    real = algotune.bounds.verify_shattering

    def drop_a_pattern(duals, witnesses, params):
        cert = real(duals, witnesses, params)
        cert.achieved_patterns.discard(tuple([0] * (len(duals) - 1) + [1]))
        return cert

    monkeypatch.setattr(algotune.bounds, "verify_shattering", drop_a_pattern)
    code, out, err = run_cli(capsys, "align", "lb-verify", "--n", "32")
    assert code == 3
    assert out == "k=3 N=2 longest=12 shattered=false patterns=3\n"
    assert "no candidate realizes sign pattern 01 " in err
    code, out, err = run_cli(capsys, "mech", "nam-lb-verify", "--n", "6")
    assert code == 3
    payload = json.loads(out)
    assert payload["shattered"] is False and payload["patterns_found"] == 2 ** payload["n"] - 1
    assert "no candidate realizes sign pattern " + "0" * (payload["n"] - 1) + "1 " in err


def test_msa_run(tmp_path, capsys):
    fasta = tmp_path / "three.fa"
    fasta.write_text(">a\nACGT\n>b\nACG\n>c\nAACGT\n")
    tree = tmp_path / "tree.nwk"
    tree.write_text("((a,b),c);")
    code, out, _ = run_cli(
        capsys, "msa", "run", "--input", str(fasta), "--tree", str(tree),
        "--rho2", "0.4",
    )
    assert code == 0
    assert out.count(">") == 3


def test_fold_run_and_decompose(tmp_path, capsys):
    fasta = tmp_path / "rna.fa"
    fasta.write_text(">r\nGCAUCGGC\n")
    code, out, _ = run_cli(capsys, "fold", "run", "--input", str(fasta), "--rho", "0.8")
    assert code == 0
    assert "pairs" in json.loads(out)
    code, out, _ = run_cli(capsys, "fold", "decompose", "--input", str(fasta))
    payload = json.loads(out)
    assert code == 0
    assert payload["piece_count"] <= payload["piece_cap"] == 5


def test_tad_run_and_decompose(tmp_path, capsys):
    n = 6
    rng = np.random.default_rng(4)
    a = rng.uniform(0, 2, size=(n, n))
    m = (a + a.T) / 2
    np.fill_diagonal(m, 0)
    path = tmp_path / "contacts.csv"
    path.write_text("\n".join(",".join(f"{x:.6f}" for x in row) for row in m) + "\n")
    code, out, _ = run_cli(capsys, "tad", "run", "--matrix", str(path), "--rho", "0.5")
    assert code == 0
    assert "intervals" in json.loads(out)
    code, out, _ = run_cli(
        capsys, "tad", "decompose", "--matrix", str(path), "--rho-max", "1.5",
        "--tolerance", "1e-5",
    )
    assert code == 0
    assert "tad_sets" in json.loads(out)


def test_tad_decompose_rejects_non_finite_inputs(tmp_path, capsys):
    path = tmp_path / "contacts.csv"
    path.write_text("0,1,2\n1,0,1\n2,1,0\n")
    for flag, value, name in (
        ("--tolerance", "nan", "tol"),
        ("--tolerance", "inf", "tol"),
        ("--rho-max", "inf", "rho_hi"),
    ):
        code, out, err = run_cli(capsys, "tad", "decompose", "--matrix", str(path), flag, value)
        assert code == 2 and out == "", (flag, value)
        assert f"{name} must be positive and finite, got {value}" in err


def test_tad_rejects_a_nan_matrix_entry_as_non_finite(tmp_path, capsys):
    # a NaN pair was once reported as asymmetry
    path = tmp_path / "contacts.csv"
    path.write_text("0,nan\nnan,0\n")
    code, out, err = run_cli(capsys, "tad", "run", "--matrix", str(path), "--rho", "1")
    assert code == 2 and out == ""
    assert err == "error: matrix entries must be finite\n"


def test_tad_rejects_a_symmetric_inf_pair(tmp_path, capsys):
    # it passed every check: `tad run` warned and printed an empty set, `decompose` exited 0
    path = tmp_path / "contacts.csv"
    path.write_text("0,inf,1\ninf,0,1\n1,1,0\n")
    for argv in (("run", "--rho", "1"), ("decompose",)):
        code, out, err = run_cli(capsys, "tad", *argv, "--matrix", str(path))
        assert code == 2 and out == "", argv
        assert err == "error: matrix entries must be finite\n", argv


def test_tad_decompose_tolerance_below_the_chord_fit_exits_2(capsys):
    # 14 x 14 planted-domain matrix: the first TAD input of the benchmark's dp_tune, seed 1
    # the chord fit's stack stays O(block x depth) on its way to the depth floor
    path = os.path.join(os.path.dirname(__file__), "data", "tad_14.csv")
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "tad", "decompose", "--matrix", path, "--tolerance", "1e-300"
        )
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert "tol=1e-300 is below what the chord fit can resolve" in err
    assert elapsed < 5.0
    assert peak < 16 * 2**20


def test_tad_rho_out_of_float_range_exits_2(capsys):
    # 13 ** rho, the longest span of the 14 x 14 matrix, overflows past rho ~ 276
    path = os.path.join(os.path.dirname(__file__), "data", "tad_14.csv")
    for argv, rho in (
        (("decompose", "--rho-max", "1000"), "1000.0"),
        (("run", "--rho", "1e300"), "1e+300"),
    ):
        code, out, err = run_cli(capsys, "tad", *argv, "--matrix", path)
        assert code == 2 and out == "", argv
        assert f"rho={rho} is out of range: 13 ** rho (from the longest span)" in err
    code, out, _ = run_cli(capsys, "tad", "decompose", "--matrix", path, "--rho-max", "250")
    assert code == 0 and json.loads(out)["hi"] == 250.0


def test_greedy_knapsack_and_mwis(tmp_path, capsys):
    kp = tmp_path / "items.csv"
    kp.write_text("10,10\n6,4\n5,5\n")
    code, out, _ = run_cli(
        capsys, "greedy", "knapsack", "--input", str(kp), "--capacity", "10",
        "--rho", "1",
    )
    assert code == 0
    assert json.loads(out)["total_value"] == pytest.approx(11.0)
    code, out, _ = run_cli(
        capsys, "greedy", "knapsack", "--input", str(kp), "--capacity", "10",
        "--decompose", "--rho-max", "3",
    )
    assert code == 0

    gr = tmp_path / "graph.txt"
    gr.write_text("0 1\n1 2\nw 0 1.0\nw 1 1.6\nw 2 1.0\n")
    code, out, _ = run_cli(capsys, "greedy", "mwis", "--input", str(gr), "--rho", "0")
    assert code == 0
    assert json.loads(out)["total_weight"] == pytest.approx(1.6)
    code, out, _ = run_cli(
        capsys, "greedy", "mwis", "--input", str(gr), "--decompose", "--rho-max", "3",
        "--format", "csv",
    )
    assert code == 0
    assert out.startswith("piece_lo,piece_hi")


def test_greedy_rho_out_of_float_range(tmp_path, capsys):
    # size ** rho (knapsack) or (1 + degree) ** rho (MWIS) must stay a positive float
    big = tmp_path / "big.csv"
    big.write_text("1,10\n2,1\n")
    small = tmp_path / "small.csv"
    small.write_text("1,0.5\n2,1\n")
    graph = tmp_path / "graph.txt"
    graph.write_text("0 1\n1 2\n")
    cases = [
        ("knapsack", "--input", str(big), "--capacity", "10", "--rho", "400"),
        ("knapsack", "--input", str(big), "--capacity", "10", "--decompose", "--rho-max", "800"),
        ("knapsack", "--input", str(small), "--capacity", "10", "--rho", "2000"),
        ("mwis", "--input", str(graph), "--rho", "1100"),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, "greedy", *argv)
        assert code == 2, argv
        assert out == "" and "out of range" in err and "leaves the float range" in err
    code, out, _ = run_cli(
        capsys, "greedy", "knapsack", "--input", str(big), "--capacity", "10", "--rho", "300"
    )
    assert code == 0 and json.loads(out)["items"] == [1]


@pytest.mark.parametrize("argv", [
    # unit sizes, an edgeless graph and a 2 x 2 matrix: every base is 1, and 1.0 ** rho
    # is 1.0 for a NaN or infinite rho, so these ran and printed a result
    ("greedy", "knapsack", "--input", "unit.csv", "--capacity", "1", "--rho"),
    ("greedy", "knapsack", "--input", "unit.csv", "--capacity", "1", "--decompose", "--rho-max"),
    ("greedy", "mwis", "--input", "edgeless.txt", "--rho"),
    ("greedy", "mwis", "--input", "edgeless.txt", "--decompose", "--rho-max"),
    ("tad", "run", "--matrix", "m2.csv", "--rho"),
])
def test_non_finite_rho_exits_2(tmp_path, capsys, argv):
    (tmp_path / "unit.csv").write_text("3,1\n2,1\n")
    (tmp_path / "edgeless.txt").write_text("w 0 1.0\nw 1 2.0\n")
    (tmp_path / "m2.csv").write_text("0,1\n1,0\n")
    argv = [str(tmp_path / a) if a.endswith((".csv", ".txt")) else a for a in argv]
    for value in ("inf", "nan"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv, value)
        assert code == 2 and out == "", (argv, value)
        assert err.startswith("error:") and f"rho={value} must be finite" in err


def test_greedy_knapsack_rejects_non_finite_inputs(tmp_path, capsys):
    # a nan capacity used to pack nothing, and an inf value printed "Infinity", not JSON
    items = tmp_path / "items.csv"
    items.write_text("10,10\n6,4\n")
    cases = [(items, "nan"), (items, "inf")]
    for row in ("inf,4", "6,nan", "6,-inf"):
        bad = tmp_path / f"bad_{len(cases)}.csv"
        bad.write_text(f"10,10\n{row}\n")
        cases.append((bad, "10"))
    for path, capacity in cases:
        for mode in ((), ("--decompose",)):
            code, out, err = run_cli(
                capsys, "greedy", "knapsack", "--input", str(path), "--capacity", capacity, *mode
            )
            assert code == 2 and out == "", (path.read_text(), capacity, mode)
            assert "values, sizes and capacity must be finite" in err


def test_greedy_knapsack_csv_errors_name_their_line(tmp_path, capsys):
    # these used to print Python's unpacking and conversion messages, with no line
    for row in ("3,4,5", "x,4", "3"):
        items = tmp_path / "items.csv"
        items.write_text(f"10,10\n{row}\n")
        code, out, err = run_cli(
            capsys, "greedy", "knapsack", "--input", str(items), "--capacity", "3"
        )
        assert code == 2 and out == "", row
        assert "line 2" in err and repr(row) in err, err


def test_greedy_rejects_ratios_outside_the_float_range(tmp_path, capsys):
    # the swap points take logs of size, value and weight ratios: 1e200 / 1e-200 is inf,
    # and 1e-200 / 1e200 is 0, which used to end in "math domain error"
    cases = []
    for pair in (("1e-200", "1e200"), ("1e200", "1e-200")):
        for field, rows in (("sizes", "1,{}\n2,{}\n"), ("values", "{},1\n{},2\n")):
            path = tmp_path / f"items_{len(cases)}.csv"
            path.write_text(rows.format(*pair))
            cases.append((field, ("knapsack", "--input", str(path), "--capacity", "1")))
        path = tmp_path / f"graph_{len(cases)}.txt"
        path.write_text("0 1\nw 0 {}\nw 1 {}\n".format(*pair))
        cases.append(("weights", ("mwis", "--input", str(path))))
    for field, argv in cases:
        for mode in (("--rho", "0.5"), ("--decompose", "--rho-max", "1")):
            code, out, err = run_cli(capsys, "greedy", *argv, *mode)
            assert code == 2 and out == "", (argv, mode)
            assert f"{field} 1e-200 and 1e+200 have a ratio outside the float range" in err


def test_greedy_mwis_rejects_non_finite_weights(tmp_path, capsys):
    for weight in ("nan", "inf"):
        graph = tmp_path / f"graph_{weight}.txt"
        graph.write_text(f"0 1\nw 0 {weight}\nw 1 1\n")
        for mode in (("--rho", "0.5"), ("--decompose", "--rho-max", "1")):
            code, out, err = run_cli(capsys, "greedy", "mwis", "--input", str(graph), *mode)
            assert code == 2 and out == "" and "weights must be finite" in err, (weight, mode)


@pytest.mark.parametrize("text,message", [
    pytest.param("-5 0\n", "line 1: vertex id '-5' is not a nonnegative integer", id="negative-id"),
    pytest.param("0 1\n1 -2\n", "line 2: vertex id '-2' is not a nonnegative integer", id="negative-neighbour"),
    pytest.param("0 1\nw -1 100.0\n", "line 2: vertex id '-1' is not a nonnegative integer", id="negative-weight-id"),
    pytest.param("0 1.5\n", "line 1: vertex id '1.5' is not a nonnegative integer", id="fractional-id"),
    pytest.param("0 1 7\n", "line 1: expected 'u v' or 'w v weight', got '0 1 7'", id="three-token-edge"),
    pytest.param("0 1\nw 0 1.5 extra\n", "line 2: expected 'u v' or 'w v weight', got 'w 0 1.5 extra'", id="four-token-weight"),
    pytest.param("0\n", "line 1: expected 'u v' or 'w v weight', got '0'", id="one-token"),
    pytest.param("0 1\nw 0 1.5\n\nw 0 2.5\n", "line 4: second 'w' line for vertex 0", id="second-weight"),
    pytest.param("0 1\nw 1 heavy\n", "line 2: weight 'heavy' is not a number", id="non-numeric-weight"),
])
def test_greedy_mwis_rejects_malformed_graph_lines(tmp_path, capsys, text, message):
    graph = tmp_path / "g.txt"
    graph.write_text(text)
    for mode in (("--rho", "1"), ("--decompose", "--rho-max", "1")):
        code, out, err = run_cli(capsys, "greedy", "mwis", "--input", str(graph), *mode)
        assert code == 2 and out == "" and err.startswith("error: "), mode
        assert message in err, mode


@pytest.mark.parametrize("text,message", [
    pytest.param("0 1\nw 0 nan\n", "line 2: weights must be finite, got 'nan'", id="nan"),
    pytest.param("0 1\nw 1 1\n\nw 0 -inf\n", "line 4: weights must be finite, got '-inf'", id="minus-inf"),
    pytest.param("0 1\nw 0 -2\n", "line 2: weights must be positive, got '-2'", id="negative"),
    pytest.param("# zero\n0 1\nw 1 0\n", "line 3: weights must be positive, got '0'", id="zero"),
])
def test_greedy_mwis_weight_errors_name_the_line(tmp_path, capsys, text, message):
    graph = tmp_path / "g.txt"
    graph.write_text(text)
    for mode in (("--rho", "1"), ("--decompose", "--rho-max", "1")):
        code, out, err = run_cli(capsys, "greedy", "mwis", "--input", str(graph), *mode)
        assert code == 2 and out == "" and err.startswith("error: "), mode
        assert message in err, mode


def test_greedy_swap_point_of_an_extreme_in_range_ratio(tmp_path, capsys):
    # sizes 1e300 apart: the packing changes where items 0 and 1 swap density rank
    items = tmp_path / "items.csv"
    items.write_text("1,1e150\n0.6,1e-150\n0.5,1e-150\n")
    code, out, _ = run_cli(capsys, "greedy", "knapsack", "--input", str(items),
                           "--capacity", "1e150", "--decompose", "--rho-max", "0.01")
    assert code == 0
    assert json.loads(out)["breakpoints"] == [math.log(1 / 0.6) / math.log(1e150 / 1e-150)]


def test_fold_rejects_non_finite_scores(tmp_path, capsys):
    # 0 * inf = NaN in the DP used to drop the stem: GGGAAACCC at rho = 1 returned 3 pairs
    fasta = tmp_path / "rna.fa"
    fasta.write_text(">r\nGGGAAACCC\n")
    scores = tmp_path / "scores.csv"
    scores.write_text("G,C,G,C,-inf\nC,G,C,G,1\n")
    for argv in (("run", "--rho", "1.0"), ("decompose",)):
        code, out, err = run_cli(
            capsys, "fold", argv[0], "--input", str(fasta), "--scores", str(scores), *argv[1:]
        )
        assert code == 2 and out == "", argv
        assert "stacking scores must be finite" in err


@pytest.mark.parametrize("text,message", [
    pytest.param("a,u,a,u,5\nG,C,G,C,2\n", "key ('a', 'u', 'a', 'u') is not four of the bases", id="lower-case"),
    pytest.param("GC,C,G,C,1\n", "key ('GC', 'C', 'G', 'C') is not four of the bases", id="two-letter-base"),
    pytest.param("G,C,G,C,2\nC,G,C,G,1\nG,C,G,C,3\n", "key ('G', 'C', 'G', 'C') is listed twice", id="repeated-tuple"),
])
def test_fold_rejects_scores_no_base_pair_can_use(tmp_path, capsys, text, message):
    fasta = tmp_path / "rna.fa"
    fasta.write_text(">r\nGGGAAACCC\n")
    scores = tmp_path / "scores.csv"
    scores.write_text(text)
    for argv in (("run", "--rho", "0.2"), ("decompose",)):
        code, out, err = run_cli(
            capsys, "fold", argv[0], "--input", str(fasta), "--scores", str(scores), *argv[1:]
        )
        assert code == 2 and out == "" and err.startswith("error: "), argv
        assert message in err, argv


@pytest.mark.parametrize("text,message", [
    pytest.param("G,C,G,C\n", "row 1: expected four bases and a score, got 4 fields", id="four-fields"),
    pytest.param("C,G,C,G,1\nG,C,G,C,1,2\n", "row 2: expected four bases and a score, got 6 fields",
                 id="six-fields"),
    pytest.param("# base pairs\n\nG,C,G,C,x\n", "row 3: score 'x' is not a number", id="score-not-a-number"),
])
def test_fold_score_row_errors_name_the_row(tmp_path, capsys, text, message):
    fasta = tmp_path / "r.fa"
    fasta.write_text(">r\nGGGAAACCC\n")
    scores = tmp_path / "s.csv"
    scores.write_text(text)
    for argv in (("run", "--rho", "0.2"), ("decompose",)):
        code, out, err = run_cli(
            capsys, "fold", argv[0], "--input", str(fasta), "--scores", str(scores), *argv[1:]
        )
        assert code == 2 and out == "" and err.startswith("error: "), argv
        assert message in err, argv


def test_seed_only_on_learn_run(tmp_path, capsys):
    kp = tmp_path / "items.csv"
    kp.write_text("10,10\n6,4\n5,5\n")
    code, _, _ = run_cli(
        capsys, "greedy", "knapsack", "--input", str(kp), "--capacity", "10",
        "--seed", "1",
    )
    assert code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "spa_erm", "n_schedule": [10], "trials": 2}))
    out = tmp_path / "a.csv"
    assert dispatch(["learn", "run", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0


def test_cluster_run_and_decompose(tmp_path, capsys):
    pts = tmp_path / "points.csv"
    pts.write_text("0,0\n0.1,0\n5,5\n5.2,5\n")
    code, out, _ = run_cli(
        capsys, "cluster", "run", "--input", str(pts), "--euclidean",
        "--family", "C2", "--rho", "0.5", "--k", "2",
    )
    assert code == 0
    clusters = json.loads(out)["clusters"]
    assert sorted(map(sorted, clusters)) == [[0, 1], [2, 3]]
    truth = tmp_path / "truth.txt"
    truth.write_text("0 0 1 1\n")
    code, out, _ = run_cli(
        capsys, "cluster", "decompose", "--input", str(pts), "--euclidean",
        "--k", "2", "--truth", str(truth),
    )
    assert code == 0
    assert json.loads(out)["pieces"][0]["intercept"] == pytest.approx(1.0)


@pytest.mark.parametrize("text,euclidean", [
    ("0,inf,1\ninf,0,2\n1,2,0\n", False),  # C2 at rho = 0 merged the infinitely distant pair first
    ("0,nan\nnan,0\n", False),  # was reported as asymmetry
    ("inf,0\n1,1\n", True),  # was "diagonal must be zero", with a RuntimeWarning
])
def test_cluster_rejects_non_finite_distances(tmp_path, capsys, text, euclidean):
    path = tmp_path / "input.csv"
    path.write_text(text)
    truth = tmp_path / "truth.txt"
    truth.write_text(" ".join("0" * len(text.splitlines())) + "\n")
    flags = ["--euclidean"] if euclidean else []
    for argv in (["run", "--rho", "0", "--k", "1"], ["decompose", "--k", "1", "--truth", str(truth)]):
        code, out, err = run_cli(capsys, "cluster", *argv, "--input", str(path), *flags)
        assert code == 2 and out == "", argv
        assert err == "error: distances must be finite\n", argv


@pytest.mark.parametrize("family,rho", [("C1", "2"), ("C1", "-2"), ("C3", "2"), ("C3", "-2")])
def test_cluster_run_with_powers_past_the_float_range(tmp_path, capsys, family, rho):
    # 1e200 ** 2 overflows and 1e200 ** -2 underflows: C1 raised, C3 merged on +inf
    path = tmp_path / "d.csv"
    path.write_text("0,1e200,1\n1e200,0,2\n1,2,0\n")
    code, out, err = run_cli(capsys, "cluster", "run", "--input", str(path),
                             "--family", family, "--rho", rho, "--k", "2")
    assert (code, err) == (0, "")
    assert out == '{"clusters": [[0, 2], [1]], "cost": 1.0}\n'


@pytest.mark.parametrize("labels", ["0 1\n", "0 1 1 0\n"])
def test_cluster_decompose_checks_the_truth_label_count(tmp_path, capsys, labels):
    # too few labels raised IndexError; too many were ignored
    path = tmp_path / "points.csv"
    path.write_text("0,0\n1,0\n5,5\n")
    truth = tmp_path / "truth.txt"
    truth.write_text(labels)
    code, out, err = run_cli(capsys, "cluster", "decompose", "--input", str(path), "--euclidean",
                             "--k", "2", "--truth", str(truth))
    assert (code, out) == (2, "")
    assert err == f"error: truth has {len(labels.split())} labels for 3 points\n"


@pytest.mark.parametrize("points", ["3,4\n", "3,4\n0,0\n"])
def test_cluster_run_checks_rho_on_any_number_of_points(tmp_path, capsys, points):
    # one point printed a result and exited 0
    path = tmp_path / "points.csv"
    path.write_text(points)
    code, out, err = run_cli(capsys, "cluster", "run", "--input", str(path), "--euclidean",
                             "--family", "C2", "--rho", "2", "--k", "1")
    assert code == 2 and out == ""
    assert err == "error: C2 requires rho in [0, 1]\n"


def test_mech_commands(tmp_path, capsys):
    vals = tmp_path / "values.csv"
    vals.write_text("3,0\n0,2\n0,0\n")
    code, out, _ = run_cli(
        capsys, "mech", "nam", "--values", str(vals), "--weights", "1,1,0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == 0
    assert payload["payments"] == [-2.0, 0.0, 2.0]
    assert payload["welfare"] == 3.0

    code, out, _ = run_cli(capsys, "mech", "spa", "--bids", "0.8,0.5", "--reserve", "0.6")
    assert json.loads(out)["revenue"] == pytest.approx(0.6)

    code, out, _ = run_cli(capsys, "mech", "nam-lb-verify", "--n", "6")
    assert code == 0
    assert json.loads(out)["shattered"] is True


@pytest.mark.parametrize("argv", [
    # printed "revenue": NaN, which is not JSON
    ("mech", "spa", "--bids", "1,nan", "--reserve", "0.5"),
    # each printed revenue 1.0
    ("mech", "spa", "--bids", "1,2", "--reserve", "nan"),
    ("mech", "spa", "--bids", "1,2", "--reserve", "0.5,nan"),
    ("mech", "spa", "--bids", "inf,2", "--reserve", "0.5"),
    # printed nan, since nan < 1 is false
    ("bounds", "loginequality", "--a", "nan", "--b", "1"),
    ("bounds", "loginequality", "--a", "2", "--b", "inf"),
])
def test_non_finite_numbers_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "finite" in err


def test_formats_encode_identical_pieces(tmp_path, capsys):
    kp = tmp_path / "items.csv"
    kp.write_text("10,10\n6,4\n5,5\n")
    base = ["greedy", "knapsack", "--input", str(kp), "--capacity", "10",
            "--decompose", "--rho-max", "3"]
    _, out_json, _ = run_cli(capsys, *base, "--format", "json")
    _, out_csv, _ = run_cli(capsys, *base, "--format", "csv")
    pieces = json.loads(out_json)["pieces"]
    rows = [line.split(",") for line in out_csv.strip().splitlines()[1:]]
    assert len(rows) == len(pieces)
    for piece, row in zip(pieces, rows):
        assert float(row[2]) == pytest.approx(piece["slope"])
        assert float(row[3]) == pytest.approx(piece["intercept"])


def test_learn_run_reproducible(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "family": "nam_overfit",
                "n_schedule": [40, 80],
                "trials": 4,
                "seed": 7,
                "params": {"n_profiles": 30},
            }
        )
    )
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert dispatch(["learn", "run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert dispatch(["learn", "run", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "config,message",
    [
        ({"family": "spa_erm", "params": {"values": []}}, "params.values must be a nonempty"),
        ({"family": "spa_overfit", "params": {"values": []}}, "params.values must be a nonempty"),
        ({"family": "spa_erm", "params": {"values": [0.5, 1e400]}}, "params.values must all be finite"),
        ({"family": "spa_overfit", "params": {"values": [0.5, 1e400]}}, "params.values must all be finite"),
        ({"family": "spa_erm", "params": {"values": [0.5, float("nan")]}}, "params.values must all be finite"),
        ({"family": "spa_overfit", "params": {"values": [float("-inf")]}}, "params.values must all be finite"),
        ({"family": "nam_overfit", "params": {"n_profiles": 0}}, "n_profiles must be >= 1"),
        ({"family": "spa_erm", "n_schedule": []}, "n_schedule must list at least one"),
        ({"family": "spa_overfit", "params": {"fallback": "nan"}}, "params.fallback must be finite"),
        ({"family": "spa_overfit", "params": {"fallback": 1e400}}, "params.fallback must be finite"),
        ({"family": "spa_erm", "params": {"n_low": 0, "n_high": 0}}, "params.n_low and params.n_high"),
        ({"family": "spa_overfit", "params": {"n_low": -1}}, "params.n_low and params.n_high"),
    ],
)
def test_learn_run_rejects_bad_configs(tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_schedule": [10], "trials": 2, **config}))
    out = tmp_path / "out.csv"
    code, stdout, err = run_cli(capsys, "learn", "run", "--config", str(cfg), "--out", str(out))
    assert code == 2 and stdout == "" and message in err
    assert not out.exists()


def test_cli_error_paths(tmp_path, capsys):
    missing = tmp_path / "nope.fa"
    assert dispatch(["align", "run", "--input", str(missing)]) == 2
    bad = tmp_path / "bad.fa"
    bad.write_text(">only_one\nACGT\n")
    assert dispatch(["align", "run", "--input", str(bad)]) == 2


@pytest.mark.parametrize("records", [1, 3])
def test_align_needs_exactly_two_records(tmp_path, capsys, records):
    fasta = tmp_path / "seqs.fa"
    fasta.write_text("".join([">a\nACGT\n", ">b\nACG\n", ">c\nTTTT\n"][:records]))
    for action in ("run", "decompose"):
        code, out, err = run_cli(capsys, "align", action, "--input", str(fasta))
        assert code == 2 and out == "", action
        assert err == f"error: align needs exactly two FASTA records, got {records}\n", action


def test_one_parser_serves_a_sequence_of_calls(tmp_path, capsys, monkeypatch):
    """The per-process parser gives what a fresh parser per call gives."""
    fasta = tmp_path / "pair.fa"
    fasta.write_text(">x\nACGT\n>y\nAGT\n")
    tree = tmp_path / "tree.nwk"
    tree.write_text("(x,y);")

    def session(tag):
        out = tmp_path / f"{tag}.json"
        calls = [
            ["align", "run", "--input", str(fasta), "--rho2", "0.5", "--out", str(out)],
            ["align", "run", "--input", str(fasta)],
            ["bounds", "pdim", "--vc", "1"],  # --pdim missing: exit 2
            ["msa", "run", "--input", str(fasta), "--tree", str(tree), "--rho1", "0.3"],
            ["align", "decompose", "--input", str(fasta), "--format", "csv"],
            ["frobnicate"],
            ["bounds", "oscillation", "--B", "3"],
        ]
        seen = []
        for argv in calls:
            code = dispatch(argv)
            captured = capsys.readouterr()
            seen.append((code, captured.out, captured.err))
        return seen, out.read_bytes()

    calls = []
    build = cli.build_parser

    def counted():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    shared = session("shared")
    assert len(calls) == 1
    monkeypatch.setattr(cli, "_parser", counted)
    fresh = session("fresh")
    assert len(calls) == 1 + 7
    assert shared == fresh
    assert [code for code, _, _ in shared[0]] == [0, 0, 2, 0, 0, 2, 0]


def test_console_entry_point_runs():
    # the child imports the same algotune as this process, installed or not
    src = os.path.dirname(os.path.dirname(algotune.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "algotune.cli"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    # bare invocation prints usage and exits 2 via argparse
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "config,field",
    [
        ({"family": "spa_erm", "n_schedule": 5}, "n_schedule"),
        ({"family": "spa_erm", "n_schedule": [10], "params": 5}, "params"),
        ([{"family": "spa_erm", "n_schedule": [10]}], "config"),
        ({"family": "spa_erm", "n_schedule": [10], "trials": None}, "trials"),
        ({"family": "nam_overfit", "n_schedule": [10], "params": {"pairs": 3}}, "params.pairs"),
        ({"family": "nam_overfit", "n_schedule": [5], "trials": 2,
          "params": {"n_profiles": 3, "pairs": [[math.inf, -1], [-0.1, 0.1]]}}, "params.pairs"),
    ],
)
def test_learn_run_rejects_malformed_json_shapes(tmp_path, capsys, config, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "learn", "run", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {field} must be")


def test_missing_json_keys_are_named_as_missing(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_schedule": [10], "trials": 2}))
    code, out, err = run_cli(capsys, "learn", "run", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == "error: missing key 'family'\n"
    fasta = tmp_path / "rna.fa"
    fasta.write_text(">r\nGCAUCGGC\n")
    truth = tmp_path / "truth.json"
    truth.write_text('{"pair": [[1, 8]]}\n')
    code, out, err = run_cli(capsys, "fold", "decompose", "--input", str(fasta), "--truth", str(truth))
    assert code == 2 and out == ""
    assert err == "error: missing key 'pairs'\n"


def test_fold_decompose_rejects_malformed_truth(tmp_path, capsys):
    fasta = tmp_path / "rna.fa"
    fasta.write_text(">r\nGCAUCGGC\n")
    truth = tmp_path / "truth.json"
    truth.write_text('{"pairs": 5}\n')
    code, out, err = run_cli(capsys, "fold", "decompose", "--input", str(fasta), "--truth", str(truth))
    assert code == 2 and out == ""
    assert err.startswith("error: pairs must be")


def test_run_commands_take_no_format(tmp_path, capsys):
    # fold, tad and cluster ``run`` print JSON only
    rna = tmp_path / "rna.fa"
    rna.write_text(">r\nGCAUCGGC\n")
    pts = tmp_path / "points.csv"
    pts.write_text("0,0\n0.1,0\n5,5\n5.2,5\n")
    matrix = os.path.join(os.path.dirname(__file__), "data", "tad_14.csv")
    for argv in (
        ["fold", "run", "--input", str(rna), "--rho", "0.8"],
        ["tad", "run", "--matrix", matrix, "--rho", "0.5"],
        ["cluster", "run", "--input", str(pts), "--euclidean", "--rho", "0.5", "--k", "2"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out), argv
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 2 and out == "" and "--format" in err, argv


def test_greedy_format_needs_decompose(tmp_path, capsys):
    # a single greedy run prints JSON whatever --format said
    items = tmp_path / "items.csv"
    items.write_text("10,10\n6,4\n5,5\n")
    graph = tmp_path / "graph.txt"
    graph.write_text("0 1\nw 0 1.0\nw 1 1.6\n")
    for argv in (["knapsack", "--input", str(items), "--capacity", "10"],
                 ["mwis", "--input", str(graph)]):
        code, out, _ = run_cli(capsys, "greedy", *argv)
        assert code == 0 and json.loads(out), argv
        for fmt in ("csv", "json"):
            code, out, err = run_cli(capsys, "greedy", *argv, "--format", fmt)
            assert code == 2 and out == "", (argv, fmt)
            assert err == "error: --format needs --decompose\n", (argv, fmt)
        code, out, _ = run_cli(capsys, "greedy", *argv, "--decompose", "--format", "csv")
        assert code == 0 and out.startswith("piece_lo,piece_hi,slope,intercept,tag\n"), argv


def test_tad_decompose_json_keys(capsys):
    path = os.path.join(os.path.dirname(__file__), "data", "tad_14.csv")
    code, out, _ = run_cli(capsys, "tad", "decompose", "--matrix", path)
    assert code == 0
    assert list(json.loads(out)) == ["lo", "hi", "breakpoints", "pieces", "tad_sets"]


def test_align_decompose_accepts_pairs_over_500_nt(tmp_path, capsys):
    # the decompositions once refused pairs over 500 nt; MAX_LEN (10,000) is the one length rule
    r = np.random.default_rng(501)
    a = r.choice(list("ACGT"), size=501)
    b = a.copy()
    b[r.choice(501, size=120, replace=False)] = r.choice(list("ACGT"), size=120)
    b = np.delete(b, r.choice(501, size=30, replace=False))
    b = np.concatenate([b[:200], r.choice(list("ACGT"), size=30), b[200:]])
    s1, s2 = "".join(a), "".join(b)
    assert len(s1) == len(s2) == 501
    fasta = tmp_path / "pair.fa"
    fasta.write_text(f">a\n{s1}\n>b\n{s2}\n")
    code, out, err = run_cli(capsys, "align", "decompose", "--input", str(fasta), "--rho-max", "2")
    assert code == 0, err
    fn = PiecewiseFunction1D.from_json(out)
    assert len(fn.pieces) >= 2
    for k in range(len(fn.pieces)):
        lo, hi = fn.piece_bounds(k)
        for x in (lo + (hi - lo) * f for f in (0.25, 0.5, 0.75)):
            _, _, obj = affine_align(Sequence(s1), Sequence(s2), AffineParams(0.0, x, 0.0))
            assert fn.value(x) == pytest.approx(obj, abs=1e-9), x


def write_overflow_inputs(tmp_path):
    (tmp_path / "p.fa").write_text(">a\nACGTACGT\n>b\nACGACGT\n")
    (tmp_path / "m.fa").write_text(">s1\nACGT\n>s2\nAGT\n")
    (tmp_path / "t.nwk").write_text("(s1,s2);\n")
    return str(tmp_path / "p.fa"), str(tmp_path / "m.fa"), str(tmp_path / "t.nwk")


def test_penalties_whose_scores_leave_the_float_range_exit_2(tmp_path, capsys):
    # these once ran with overflow warnings, and align run printed a wrong
    # alignment with objective -Infinity
    pair, msa, tree = write_overflow_inputs(tmp_path)
    for argv, want in (
        (("align", "run", "--input", pair, "--rho1", "0.5", "--rho2", "1e308", "--rho3", "1e308"),
         "penalties rho1=0.5, rho2=1e+308, rho3=1e+308 take the alignment scores of a 8 x 7 pair"),
        (("msa", "run", "--input", msa, "--tree", tree, "--rho1", "0.5", "--rho2", "0.5",
          "--rho3", "1e308"),
         "penalties rho1=0.5, rho2=0.5, rho3=1e+308 take the alignment scores of a 4 x 3 pair"),
        (("align", "decompose", "--input", pair, "--rho-max", "1e308"),
         "rho_max=1e+308 takes the alignment scores of a 8 x 7 pair"),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert f"error: {want} out of the float range" in err, err


def test_large_finite_penalties_still_align(tmp_path, capsys):
    pair, _, _ = write_overflow_inputs(tmp_path)
    for rho, rows, objective in (
        ("1e12", ["ACGTACGT", "ACG-ACGT"], 7 - 2e12),
        # 7 matches and 4 matches less 3 mismatches both vanish next to 2e300:
        # the tie goes to the end gap, as in the cell-by-cell recurrence
        ("1e300", ["ACGTACGT", "-ACGACGT"], -2e300),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(
                capsys, "align", "run", "--input", pair, "--rho1", "0.5", "--rho2", rho,
                "--rho3", rho, "--format", "json",
            )
        assert code == 0
        got = json.loads(out)
        assert (got["rows"], got["objective"]) == (rows, objective), rho


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_align_decompose_names_a_bad_rho_max(tmp_path, capsys, value):
    pair, _, _ = write_overflow_inputs(tmp_path)
    code, out, err = run_cli(capsys, "align", "decompose", "--input", pair, "--rho-max", value)
    assert code == 2 and out == ""
    assert f"error: rho_max must be positive and finite, got {float(value)!r}" in err, err
