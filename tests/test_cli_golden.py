"""Byte-for-byte CLI output of the alignment, folding and clustering commands on seeded inputs.

``tests/data/cli_golden.json`` holds, per case, the exact text that
``align run``/``decompose``, ``fold run``/``decompose`` and ``msa run`` wrote
(``--format json`` and ``--format csv`` where the command has it) when the
sweeps still solved one parameter per DP run, and that ``cluster run`` (C1, C2,
C3) and ``cluster decompose`` wrote when agglomeration still gathered every
pair's distances at every merge.  Any change to breakpoints, tags, tie-breaks,
merge orders or float formatting shows up here as a diff.

To record the file again (only for an intended output change)::

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import itertools
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from algotune.cli import dispatch

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"
COMPLEMENT = str.maketrans("AUCG", "UAGC")


def mutate(rng, seq, alphabet, rate):
    """A mutated copy of ``seq`` and the true alignment of the two, as gapped rows."""
    r1, r2 = [], []
    for c in seq:
        r = rng.random()
        r1.append(c)
        r2.append("-" if r < rate / 3 else rng.choice(alphabet) if r < 2 * rate / 3 else c)
        if rng.random() < rate / 3:  # insertion
            r1.append("-")
            r2.append(rng.choice(alphabet))
    if all(c == "-" for c in r2):
        r2[0] = alphabet[0]
    return "".join(r1), "".join(r2)


def write_inputs(tmp: Path) -> dict:
    """Seeded input files; returns case name -> argv (paths under ``tmp``)."""
    rng = random.Random(2024)
    cases = {}

    def put(name, text):
        path = tmp / name
        path.write_text(text)
        return str(path)

    for i, (length, rate, alphabet) in enumerate([(1, 0.0, "ACGT"), (12, 0.3, "AC"), (28, 0.25, "ACGT"),
                                                 (45, 0.35, "ACG"), (55, 0.9, "ACG"), (60, 0.8, "ACGT")]):
        a = "".join(rng.choice(alphabet) for _ in range(length))
        r1, r2 = mutate(rng, a, alphabet, rate)
        pair = put(f"pair{i}.fa", f">a{i}\n{a}\n>b{i}\n{r2.replace('-', '')}\n")
        ref = put(f"ref{i}.fa", f">a{i}\n{r1}\n>b{i}\n{r2}\n")
        for fmt in ("json", "csv"):
            rho_max = ("1.0", "3.5", "5.0")[i % 3]
            cases[f"align_decompose_{i}_{fmt}"] = [
                "align", "decompose", "--input", pair, "--rho-max", rho_max, "--format", fmt]
            cases[f"align_utility_{i}_{fmt}"] = [
                "align", "decompose", "--input", pair, "--reference", ref, "--rho-max", rho_max,
                "--format", fmt]
            cases[f"align_run_{i}_{fmt}"] = [
                "align", "run", "--input", pair, "--rho1", "0.4", "--rho2", "0.75", "--rho3", "0.2",
                "--format", fmt]

    zero = put("zero_scores.csv", "# all stacking credits zero\n")
    mixed = put("mixed_scores.csv", "".join(
        f"{','.join(key)},{rng.uniform(-1, 2)!r}\n"
        for key in itertools.product("AUCG", repeat=4)))
    for i, length in enumerate([3, 17, 31, 40, 36, 42]):
        seq = "".join(rng.choice("AUCG") for _ in range(length))
        if i >= 4:  # a hairpin stem: many pair counts compete
            half = seq[: length // 3]
            seq = half + seq[length // 3: -(length // 3)] + half[::-1].translate(COMPLEMENT)
        rna = put(f"rna{i}.fa", f">r{i}\n{seq}\n")
        pairs = [[k, length + 1 - k] for k in range(1, length // 3) if rng.random() < 0.7]
        truth = put(f"truth{i}.json", json.dumps({"pairs": pairs}) + "\n")
        for fmt in ("json", "csv"):
            cases[f"fold_decompose_{i}_{fmt}"] = [
                "fold", "decompose", "--input", rna, "--format", fmt]
            cases[f"fold_utility_{i}_{fmt}"] = [
                "fold", "decompose", "--input", rna, "--truth", truth, "--format", fmt]
            cases[f"fold_utility_zero_{i}_{fmt}"] = [
                "fold", "decompose", "--input", rna, "--truth", truth, "--scores", zero,
                "--format", fmt]
            cases[f"fold_decompose_mixed_{i}_{fmt}"] = [
                "fold", "decompose", "--input", rna, "--scores", mixed, "--format", fmt]
            cases[f"fold_utility_mixed_{i}_{fmt}"] = [
                "fold", "decompose", "--input", rna, "--truth", truth, "--scores", mixed,
                "--format", fmt]
        cases[f"fold_run_{i}"] = ["fold", "run", "--input", rna, "--rho", "0.35"]
        cases[f"fold_run_zero_{i}"] = ["fold", "run", "--input", rna, "--rho", "0.5", "--scores", zero]

    for i, (count, length) in enumerate([(2, 9), (5, 20), (8, 33)]):
        base = "".join(rng.choice("ACGT") for _ in range(length))
        ids = [f"s{k}" for k in range(count)]
        leaves = [mutate(rng, base, "ACGT", 0.2)[1].replace("-", "") for _ in ids]
        seqs = put(f"msa{i}.fa", "".join(f">{x}\n{leaf}\n" for x, leaf in zip(ids, leaves)))
        newick = ids[0]
        for x in ids[1:]:
            newick = f"({newick},{x})" if rng.random() < 0.5 else f"({x},{newick})"
        tree = put(f"tree{i}.nwk", newick + ";\n")
        cases[f"msa_run_{i}"] = ["msa", "run", "--input", seqs, "--tree", tree,
                                 "--rho1", "0.5", "--rho2", "0.5", "--rho3", "0.5"]

    crng = random.Random(2026)  # its own stream: the inputs above stay as recorded
    rhos = {"C1": ("-inf", "-30", "-1.5", "0.5", "2", "25", "inf"),
            "C2": ("0", "0.35", "0.5", "1"),
            "C3": ("-inf", "-2", "0", "1", "3", "30")}
    for i, (n, grid) in enumerate([(2, False), (7, False), (11, True), (14, False), (16, True)]):
        if grid:  # integer coordinates: many tied and some zero distances
            pts = [(crng.randrange(5), crng.randrange(5)) for _ in range(n)]
        else:
            pts = [(crng.gauss(4.0 * (j >= n // 2), 1.0), crng.gauss(0.0, 1.0)) for j in range(n)]
        points = put(f"points{i}.csv", "".join(f"{x!r},{y!r}\n" for x, y in pts))
        truth = put(f"labels{i}.txt", " ".join(str(int(j >= n // 2)) for j in range(n)) + "\n")
        k = str(min(n, 2 + i % 2))
        for family, values in rhos.items():
            for rho in values:
                cases[f"cluster_run_{i}_{family}_{rho}"] = [
                    "cluster", "run", "--input", points, "--euclidean", "--family", family,
                    f"--rho={rho}", "--k", k]
        for fmt in ("json", "csv"):
            cases[f"cluster_decompose_{i}_{fmt}"] = [
                "cluster", "decompose", "--input", points, "--euclidean", "--k", k,
                "--truth", truth, "--format", fmt]
    n = 9  # a distance table of small integers: ties everywhere
    table = [[0] * n for _ in range(n)]
    for a, b in itertools.combinations(range(n), 2):
        table[a][b] = table[b][a] = crng.randint(1, 4)
    dist = put("dist.csv", "".join(",".join(map(str, row)) + "\n" for row in table))
    truth = put("dist_labels.txt", " ".join(str(j % 3) for j in range(n)) + "\n")
    for family, values in rhos.items():
        for rho in values:
            cases[f"cluster_run_table_{family}_{rho}"] = [
                "cluster", "run", "--input", dist, "--family", family, f"--rho={rho}", "--k", "3"]
    for fmt in ("json", "csv"):
        cases[f"cluster_decompose_table_{fmt}"] = [
            "cluster", "decompose", "--input", dist, "--k", "3", "--truth", truth, "--format", fmt]
    return cases


def run_case(argv, out: Path) -> str:
    if out.exists():
        out.unlink()
    assert dispatch(argv + ["--out", str(out)]) == 0, argv
    return out.read_text()


def test_outputs_match_the_recorded_bytes(tmp_path):
    want = json.loads(GOLDEN.read_text())
    cases = write_inputs(tmp_path)
    assert sorted(cases) == sorted(want)
    for name, argv in cases.items():
        assert run_case(argv, tmp_path / "out.txt") == want[name], name


@pytest.mark.parametrize("kind", ["align_decompose", "align_utility", "fold_decompose"])
def test_corpus_has_envelopes_of_several_pieces(kind):
    # one- and two-piece envelopes never solve more than one point per round
    want = json.loads(GOLDEN.read_text())
    pieces = [len(json.loads(text)["pieces"]) for name, text in want.items()
              if name.startswith(kind) and name.endswith("json")]
    assert sum(p >= 3 for p in pieces) >= 2


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    with tempfile.TemporaryDirectory() as tmp:
        cases = write_inputs(Path(tmp))
        GOLDEN.write_text(json.dumps(
            {name: run_case(argv, Path(tmp) / "out.txt") for name, argv in cases.items()},
            indent=1, sort_keys=True) + "\n")
