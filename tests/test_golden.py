"""Golden output digests: the SHA-256 of every file each command writes on
three small seeded datasets and one tiny hand-written one, against the
digests committed in `golden_digests.json`; and the same bytes under two
`PYTHONHASHSEED` values.

The contract is "same bytes for the same input and seed", across commits.
A digest that changes is an output change: regenerate the file with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json

and name the change in CHANGES.md.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from followups.cli import main
from followups.synth import SynthConfig, write_dataset

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_digests.json"
SRC = HERE.parent / "src"

DATASETS = {
    "d1": SynthConfig(users=120, actions=50, seed=1, hubs=4),
    "d2": SynthConfig(users=150, actions=60, seed=2, hubs=5),
    "d3": SynthConfig(users=100, actions=40, seed=3, hubs=3),
}
ALL_ALGOS = "greedy,eager,random,most-popular,exhaustive"

# A dataset small enough for the brute-force oracle: at most 8 predicates.
TINY = {
    "graph.tsv": "1\t2\n1\t3\n2\t3\n2\t4\n3\t4\n",
    "actions.tsv": "1\ta\t1\n2\ta\t2\n3\ta\t3\n4\ta\t4\n1\tb\t1\n3\tb\t2\n4\tb\t3\n2\tc\t1\n4\tc\t5\n",
    "users.attrs.tsv": "#numeric: age\n1\tage\t20\n2\tage\t30\n3\tage\t40\n4\tage\t50\n2\tgender\tf\n3\tgender\tm\n4\tgender\tf\n",
    "actions.attrs.tsv": "a\tgenre\tdrama\nb\tgenre\tcomedy\nc\tgenre\tdrama\nb\tgenre\tdrama\n",
}


def _inputs(data: Path, extra: list[str]) -> list[str]:
    return [
        "--graph", str(data / "graph.tsv"),
        "--actions", str(data / "actions.tsv"),
        "--user-attrs", str(data / "users.attrs.tsv"),
        "--action-attrs", str(data / "actions.attrs.tsv"),
        *extra,
    ]


def _runs(name: str, data: Path, out: Path) -> list[tuple[str, list[str]]]:
    """(run label, CLI arguments) of every command but `render` on one
    dataset; each run writes under `out / label`."""
    if name == "tiny":
        return [
            ("oracle", ["baseline", *_inputs(data, []), "--algo", "oracle", "-k", "2", "-l", "2",
                        "--top", "3", "--nbins", "2", "--out", str(out / "oracle")]),
        ]
    # each dataset carries one of the options that change the inputs' reading
    extra = {"d1": ["--max-delay", "3"], "d2": ["--user-predicate-target", "influencer"], "d3": []}[name]
    mine = ["-k", "3", "-l", "2", "--top", "4"]
    plain = ["--graph", str(data / "graph.tsv"), "--actions", str(data / "actions.tsv")]
    runs = [
        ("rank", ["rank", *plain, "--top", "10", "--out", str(out / "rank" / "rank.csv")]),
        ("histogram", ["histogram", *plain, "--out", str(out / "histogram" / "histogram.csv")]),
        ("greedy", ["mine", *_inputs(data, extra), "--algo", "greedy", *mine, "--out", str(out / "greedy")]),
        ("eager", ["mine", *_inputs(data, extra), "--algo", "eager", "--nbins", "2", *mine,
                   "--out", str(out / "eager")]),
        ("random", ["baseline", *_inputs(data, extra), "--algo", "random", "--seed", "7", *mine,
                    "--out", str(out / "random")]),
        ("most-popular", ["baseline", *_inputs(data, extra), "--algo", "most-popular", *mine,
                          "--out", str(out / "most-popular")]),
        ("exhaustive", ["baseline", *_inputs(data, extra), "--algo", "exhaustive", *mine,
                        "--out", str(out / "exhaustive")]),
        ("sweep-k", ["sweep", *_inputs(data, extra), "--axis", "k", "--values", "1,2,4", "--algos", ALL_ALGOS,
                     "-l", "2", "--top", "4", "--out", str(out / "sweep-k")]),
        ("sweep-l", ["sweep", *_inputs(data, extra), "--axis", "l", "--values", "1,3",
                     "--algos", "greedy,most-popular,random", "-k", "2", "--top", "4", "--out", str(out / "sweep-l")]),
    ]
    if name == "d3":
        # --bins reuse: mine again with the bins the greedy run wrote
        runs.append(("reuse-bins", ["mine", *_inputs(data, ["--bins", str(out / "greedy" / "bins.json")]),
                                    *mine, "--out", str(out / "reuse-bins")]))
    return runs


def write_all(root: Path) -> None:
    """Write every dataset and every run's outputs under `root`."""
    for name, config in DATASETS.items():
        write_dataset(config, root / name / "data")
    tiny = root / "tiny" / "data"
    tiny.mkdir(parents=True)
    for filename, text in TINY.items():
        (tiny / filename).write_text(text, encoding="utf-8")
    for name in (*DATASETS, "tiny"):
        data, out = root / name / "data", root / name / "out"
        for label, argv in _runs(name, data, out):
            assert main(argv) == 0, (name, label)
        if name != "tiny":
            [top] = (out / "greedy").glob("explanations_001_*.json")
            render = ["render", "--in", str(top), "--display", "genre=G", "--out", str(out / "render" / "table.txt")]
            assert main(render) == 0, (name, "render")


def digests(root: Path) -> dict[str, str]:
    """SHA-256 of every output file under `root`, keyed by its path from
    `root` with the `out` directory left out."""
    found = {}
    for name in (*DATASETS, "tiny"):
        out = root / name / "out"
        for path in sorted(out.rglob("*")):
            if path.is_file():
                found[f"{name}/{path.relative_to(out).as_posix()}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def test_outputs_match_golden_digests(tmp_path, capsys):
    write_all(tmp_path)
    capsys.readouterr()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests(tmp_path)
    assert sorted(got) == sorted(golden)
    changed = sorted(key for key in golden if got[key] != golden[key])
    assert not changed, changed
    # every run wrote something, and the options that matter were exercised
    for name in DATASETS:
        for label in ("greedy", "eager", "random", "most-popular", "exhaustive", "sweep-k", "sweep-l"):
            assert any(key.startswith(f"{name}/{label}/") for key in got), (name, label)
    assert "d3/reuse-bins/summary.csv" in got and "d3/reuse-bins/bins.json" not in got
    assert any(key.startswith("tiny/oracle/explanations_") for key in got)


HASHSEED_SCRIPT = """
import sys
from followups.cli import main
data, out = sys.argv[1], sys.argv[2]
inputs = ["--graph", data + "/graph.tsv", "--actions", data + "/actions.tsv",
          "--user-attrs", data + "/users.attrs.tsv", "--action-attrs", data + "/actions.attrs.tsv"]
assert main(["mine", *inputs, "--top", "20", "--out", out + "/mine"]) == 0
assert main(["sweep", *inputs, "--axis", "k", "--values", "1,3", "--algos", "greedy,random,most-popular",
             "--top", "20", "--out", out + "/sweep"]) == 0
"""


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {path.relative_to(root).as_posix(): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    data = tmp_path / "data"
    write_dataset(SynthConfig(users=300, actions=120, seed=5, hubs=8), data)
    trees = []
    for hashseed in ("0", "987"):
        out = tmp_path / f"out-{hashseed}"
        env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=str(SRC))
        subprocess.run([sys.executable, "-c", HASHSEED_SCRIPT, str(data), str(out)], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        trees.append(_tree_bytes(out))
    assert trees[0] and trees[0] == trees[1]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as devnull:
        stdout, sys.stdout = sys.stdout, devnull
        try:
            write_all(Path(tmp))
        finally:
            sys.stdout = stdout
        print(json.dumps(digests(Path(tmp)), indent=1, sort_keys=True))
