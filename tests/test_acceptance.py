"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria 6 and 7 share one seeded synthetic dataset sized like the
quantitative experiments (5,000 users, 2,000 actions, ~120 predicates per
influencer catalog).
"""
from __future__ import annotations

import math
import random
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

from conftest import index_from_postings, postings_of, random_attribute_instance
from test_ingestion import oracle_followups, random_instance

from followups import harness
from followups.baselines import (
    brute_force_oracle,
    exhaustive_baseline,
    nominal_combination_count,
)
from followups.cli import main as cli_main
from followups.featurization import USER, build_predicate_index
from followups.harness import RunConfig, median, render_table, sweep, timing_report
from followups.ingestion import compute_followup_set, global_followup_stats
from followups.miner import (
    Explanation,
    annotate,
    coverage_of_explanation,
    coverage_of_set,
    eager_greedy,
    explanation_set_doc,
    explanation_set_json,
    mine_explanations,
)
from followups.synth import SynthConfig, write_dataset

E_INV = 1.0 - 1.0 / math.e

BIG_CONFIG = SynthConfig(users=5000, actions=2000, seed=13, hubs=22)


def report(number: int, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    # bypass pytest's capture so the per-criterion line always reaches the log
    print(f"ACCEPTANCE {number} {status}: {detail} ({elapsed:.1f}s)", file=sys.__stdout__)


@pytest.fixture(scope="module")
def big_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("big")
    paths = write_dataset(BIG_CONFIG, out)
    config = RunConfig(
        graph=paths["graph"],
        actions=paths["actions"],
        user_attrs=paths["user_attrs"],
        action_attrs=paths["action_attrs"],
        k=6,
        l=3,
        top_n=20,
        seed=0,
        out_dir=out / "results",
    )
    return config


def build_indexes(config: RunConfig):
    graph = harness.load_graph(config.graph)
    log = harness.load_log(config.actions)
    stats = global_followup_stats(graph, log)
    user_attrs = harness.load_table(config.user_attrs, "user")
    action_attrs = harness.load_table(config.action_attrs, "action")
    bins = harness.prepare_bins(user_attrs, action_attrs, stats, config.nbins)
    ranked = sorted(stats.influencer_counts.items(), key=lambda it: (-it[1], it[0]))
    indexes = []
    for user, _ in ranked[: config.top_n]:
        fset = compute_followup_set(graph, log, user)
        indexes.append(build_predicate_index(fset, user_attrs, action_attrs, bins))
    return indexes


def test_criterion_1_lazy_eager_differential():
    t0 = time.perf_counter()
    mismatches = 0
    for seed in range(200):
        rng = random.Random(90_000 + seed)
        index = random_attribute_instance(rng, max_cells=300, max_predicates=40)
        k = rng.randint(1, 5)
        l = rng.randint(1, 4)
        lazy = explanation_set_json(mine_explanations(index, k, l), index)
        eager = explanation_set_json(eager_greedy(index, k, l), index)
        if lazy != eager:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30.0
    report(1, ok, f"lazy vs eager byte-identical JSON on 200 instances, {mismatches} mismatches", elapsed)
    assert mismatches == 0
    assert elapsed < 30.0


def test_criterion_2_submodularity_supermodularity_fuzzing():
    t0 = time.perf_counter()
    violations = 0
    checks = 0
    for inst in range(20):
        rng = random.Random(77_000 + inst)
        index = random_attribute_instance(rng, max_cells=80, max_predicates=25)
        if index.n_predicates < 4:
            index = index_from_postings([[0, 1], [1, 2], [0, 2], [2, 3]])
        for _ in range(250):
            # set coverage: monotone increasing, submodular
            pool = [
                tuple(rng.sample(range(index.n_predicates), min(rng.randint(1, 3), index.n_predicates)))
                for _ in range(4)
            ]
            small = pool[: rng.randint(0, 2)]
            big = small + [pool[2]]
            extra = pool[3]
            g_small = coverage_of_set(index, small + [extra]) - coverage_of_set(index, small)
            g_big = coverage_of_set(index, big + [extra]) - coverage_of_set(index, big)
            checks += 1
            if not (g_small >= g_big >= 0):
                violations += 1
            # explanation coverage: monotone decreasing, supermodular
            pids = rng.sample(range(index.n_predicates), 4)
            e_small = pids[: rng.randint(0, 2)]
            e_big = e_small + [pids[2]]
            p = pids[3]
            l_small = coverage_of_explanation(index, e_small + [p]) - coverage_of_explanation(index, e_small)
            l_big = coverage_of_explanation(index, e_big + [p]) - coverage_of_explanation(index, e_big)
            checks += 1
            if not (l_small <= l_big <= 0):
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and checks == 10_000 and elapsed < 10.0
    report(2, ok, f"{checks} monotonicity/curvature triples, {violations} violations", elapsed)
    assert violations == 0
    assert checks == 10_000
    assert elapsed < 10.0


def random_tiny_index(rng: random.Random, max_predicates: int):
    n_cells = rng.randint(6, 40)
    n_preds = rng.randint(3, max_predicates)
    postings = []
    for _ in range(n_preds):
        size = rng.randint(1, n_cells)
        postings.append(sorted(rng.sample(range(n_cells), size)))
    return index_from_postings(postings, n_cells=n_cells)


def test_criterion_3_oracle_bound_and_monotonicity():
    t0 = time.perf_counter()
    failures = []
    for i in range(100):
        rng = random.Random(55_000 + i)
        k = 2 if i % 3 == 0 else 1
        l = rng.randint(1, 3)
        # triple-size oracle probes explode combinatorially, so k=2 instances
        # stay a little narrower
        index = random_tiny_index(rng, max_predicates=9 if k == 2 else 12)
        opt, _ = brute_force_oracle(index, k, l)
        exh = exhaustive_baseline(index, k, l).total_coverage
        if not exh >= E_INV * opt:
            failures.append((i, "bound", exh, opt))
        opt_longer, _ = brute_force_oracle(index, k, l + 1, max_l=l + 1)
        if not opt_longer <= opt:
            failures.append((i, "l-monotone", opt_longer, opt))
        opt_more, _ = brute_force_oracle(index, k + 1, l, max_k=k + 1)
        if not opt_more >= opt:
            failures.append((i, "k-monotone", opt_more, opt))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    report(3, ok, f"exhaustive >= (1-1/e)*OPT and OPT monotone on 100 tiny instances, {len(failures)} failures", elapsed)
    assert not failures, failures[:5]
    assert elapsed < 60.0


def max_l_subset_intersection(families: list[frozenset[int]], l: int) -> int:
    """Independent enumerator over plain set families, straight from the
    problem statement: the largest intersection of any l of the sets."""
    if len(families) < l:
        return 0
    best = 0
    for combo in combinations(families, l):
        inter = combo[0]
        for s in combo[1:]:
            inter = inter & s
        best = max(best, len(inter))
    return best


def test_criterion_4_subset_intersection_equivalence_at_k1():
    t0 = time.perf_counter()
    mismatches = []
    for i in range(100):
        rng = random.Random(33_000 + i)
        l = rng.randint(1, 3)
        index = random_tiny_index(rng, max_predicates=12)
        families = [frozenset(p) for p in postings_of(index)]
        expected = max_l_subset_intersection(families, l)
        got, _ = brute_force_oracle(index, 1, l)
        if got != expected:
            mismatches.append((i, got, expected))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 10.0
    report(4, ok, f"k=1 optimum equals the subset-intersection enumerator on 100 instances, {len(mismatches)} mismatches", elapsed)
    assert not mismatches, mismatches[:5]
    assert elapsed < 10.0


def test_criterion_5_reachability_cube():
    t0 = time.perf_counter()
    mismatches = 0
    for i in range(100):
        rng = random.Random(44_000 + i)
        graph, log = random_instance(rng, users=rng.randint(5, 50), actions=rng.randint(1, 20))
        expected = oracle_followups(graph, log)
        for user in sorted(graph.users):
            fset = compute_followup_set(graph, log, user)
            if set(fset.cells) != expected.get(user, set()):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 20.0
    report(5, ok, f"followup sets equal the transitive-closure oracle on 100 graphs, {mismatches} mismatches", elapsed)
    assert mismatches == 0
    assert elapsed < 20.0


def test_criterion_6_coverage_figure_analogue(big_dataset):
    t0 = time.perf_counter()
    algos = ["greedy", "most-popular", "random", "exhaustive"]
    result = sweep(big_dataset, "k", [1, 2, 3, 4, 5, 6], algos)
    order_ok = True
    gap = 0.0
    for point in result.points:
        m = point.medians
        if not (m["greedy"] >= m["most-popular"] >= m["random"]):
            order_ok = False
        gap = max(gap, m["exhaustive"] - m["greedy"])
    elapsed = time.perf_counter() - t0
    ok = order_ok and gap <= 0.02 and elapsed < 300.0
    detail = (
        "median coverage over top-20: greedy >= most-popular >= random at every k, "
        f"max exhaustive-greedy gap {gap:.3f}"
    )
    report(6, ok, detail, elapsed)
    assert order_ok
    assert gap <= 0.02
    assert elapsed < 300.0


def test_criterion_7_runtime_analogue(big_dataset):
    t0 = time.perf_counter()
    indexes = build_indexes(big_dataset)
    # sizing: the unpruned search space stays above 1e5 combinations in every
    # iteration the exhaustive baseline actually runs
    min_combos = None
    for index in indexes:
        eset = exhaustive_baseline(index, big_dataset.k, big_dataset.l)
        unmarked = index.full_mask
        for expl in eset.explanations:
            combos = nominal_combination_count(index, big_dataset.l, unmarked)
            min_combos = combos if min_combos is None else min(min_combos, combos)
            unmarked &= ~expl.covered_bits
    rows = dict(
        (algo, ms)
        for algo, _k, _l, ms in timing_report(big_dataset, ["greedy", "exhaustive"], indexes)
    )
    speedup = rows["exhaustive"] / rows["greedy"]
    elapsed = time.perf_counter() - t0
    ok = min_combos >= 100_000 and speedup >= 5.0 and elapsed < 600.0
    detail = (
        f"exhaustive explores >= {min_combos} combos/iteration; "
        f"greedy {rows['greedy']:.2f} ms vs exhaustive {rows['exhaustive']:.2f} ms median "
        f"({speedup:.1f}x)"
    )
    report(7, ok, detail, elapsed)
    assert min_combos >= 100_000
    assert speedup >= 5.0
    assert elapsed < 600.0


def test_criterion_8_annotation_consistency(tmp_path):
    t0 = time.perf_counter()
    paths = write_dataset(SynthConfig(users=400, actions=150, seed=21, hubs=8), tmp_path / "ds")
    config = RunConfig(
        graph=paths["graph"],
        actions=paths["actions"],
        user_attrs=paths["user_attrs"],
        action_attrs=paths["action_attrs"],
        k=6,
        l=3,
        top_n=5,
        out_dir=tmp_path / "out",
    )
    indexes = build_indexes(config)
    problems = []
    for index in indexes:
        eset = mine_explanations(index, config.k, config.l)
        if not eset.explanations:
            problems.append("no explanations mined")
            continue
        doc = explanation_set_doc(eset, index)
        if sum(r["followups"] for r in doc["explanations"]) < doc["total_coverage"]:
            problems.append("row followups sum below union")
        # the action count only reads action predicates: swapping the user
        # side of an explanation must not move it
        for expl in eset.explanations:
            action_only = tuple(
                p for p in expl.predicates if index.predicates[p].dimension != USER
            )
            stripped = Explanation(action_only, 0, 0, 0)
            if annotate(stripped, index).actions != annotate(expl, index).actions:
                problems.append("action count moved under user-predicate change")
        table = render_table(doc)
        footer = table.rstrip().rsplit("Total Coverage: ", 1)[1]
        want = f"{100.0 * doc['total_coverage'] / doc['total_followups']:.1f}%"
        if footer != want:
            problems.append(f"footer {footer} != {want}")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 10.0
    report(8, ok, f"annotation and table identities over top-5 influencers, {len(problems)} problems", elapsed)
    assert not problems, problems[:5]
    assert elapsed < 10.0


def run_cli_suite(base: Path, tag: str) -> dict[str, bytes]:
    """One full pass of every subcommand, returning every output's bytes."""
    ds = base / f"ds_{tag}"
    mined = base / f"mined_{tag}"
    bl = base / f"baseline_{tag}"
    sw = base / f"sweep_{tag}"
    rank = base / f"rank_{tag}.csv"
    hist = base / f"hist_{tag}.csv"
    table = base / f"table_{tag}.txt"
    steps = [
        ["gen", "--out", str(ds), "--users", "300", "--actions", "120", "--seed", "6", "--hubs", "6"],
        ["rank", "--graph", str(ds / "graph.tsv"), "--actions", str(ds / "actions.tsv"), "--top", "5", "--out", str(rank)],
        ["histogram", "--graph", str(ds / "graph.tsv"), "--actions", str(ds / "actions.tsv"), "--out", str(hist)],
        [
            "mine", "--graph", str(ds / "graph.tsv"), "--actions", str(ds / "actions.tsv"),
            "--user-attrs", str(ds / "users.attrs.tsv"), "--action-attrs", str(ds / "actions.attrs.tsv"),
            "-k", "3", "-l", "2", "--top", "3", "--out", str(mined),
        ],
        [
            "baseline", "--graph", str(ds / "graph.tsv"), "--actions", str(ds / "actions.tsv"),
            "--user-attrs", str(ds / "users.attrs.tsv"), "--action-attrs", str(ds / "actions.attrs.tsv"),
            "--algo", "random", "--seed", "99", "-k", "3", "-l", "2", "--top", "3", "--out", str(bl),
        ],
        [
            "sweep", "--graph", str(ds / "graph.tsv"), "--actions", str(ds / "actions.tsv"),
            "--user-attrs", str(ds / "users.attrs.tsv"), "--action-attrs", str(ds / "actions.attrs.tsv"),
            "--axis", "k", "--values", "1,2,3", "--algos", "greedy,most-popular,random",
            "-l", "2", "--top", "3", "--seed", "1", "--out", str(sw),
        ],
    ]
    for argv in steps:
        assert cli_main(argv) == 0, argv
    first_json = sorted(mined.glob("explanations_*.json"))[0]
    assert cli_main(["render", "--in", str(first_json), "--out", str(table)]) == 0
    outputs = {}
    for root in (ds, mined, bl, sw):
        for path in sorted(root.rglob("*")):
            if path.is_file():
                outputs[f"{root.name[: -2]}/{path.relative_to(root)}"] = path.read_bytes()
    for path in (rank, hist, table):
        outputs[path.name.replace(f"_{tag}", "")] = path.read_bytes()
    return outputs


def test_criterion_9_cli_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    first = run_cli_suite(tmp_path, "a")
    second = run_cli_suite(tmp_path, "b")
    capsys.readouterr()
    differing = sorted(
        name for name in first if first[name] != second.get(name)
    ) + sorted(name for name in second if name not in first)
    elapsed = time.perf_counter() - t0
    ok = not differing
    report(9, ok, f"{len(first)} CLI output files byte-identical across reruns, {len(differing)} differ", elapsed)
    assert not differing, differing[:10]
