"""The sweep, which on axis k runs each sequential algorithm once per
influencer and reads every smaller k off its prefix, against the per-value
`reference_sweep` on seeded random instances; and every sequential
algorithm's run at k against the first k explanations of its stream."""
from __future__ import annotations

import random
from collections import Counter
from itertools import islice

from conftest import random_attribute_instance, reference_sweep
from followups import baselines, harness, miner
from followups.errors import FollowupsError, ResourceLimitError
from followups.harness import ALGORITHMS, RunConfig, run_algorithm, sweep, write_sweep_csv

INSTANCES = 200

STREAMS = {
    "greedy": lambda index, l, seed, budget: miner.greedy_explanations(index, l),
    "eager": lambda index, l, seed, budget: miner.eager_explanations(index, l),
    "random": lambda index, l, seed, budget: baselines.random_explanations(index, l, seed),
    "most-popular": lambda index, l, seed, budget: baselines.most_popular_explanations(index, l),
    "exhaustive": lambda index, l, seed, budget: baselines.exhaustive_explanations(index, l, budget),
}


def random_case(rng: random.Random, inputs) -> tuple[RunConfig, str, list[int], list[str], list]:
    """A config, axis, values, algorithms and top-influencer list. Small
    catalogs and k <= 2 let the oracle run; a small node budget lets the
    exhaustive search trip."""
    small = rng.random() < 0.3
    top = []
    for i in range(rng.randint(1, 4)):
        index = random_attribute_instance(
            rng, max_cells=rng.choice((15, 60, 200)), max_predicates=10 if small else rng.choice((12, 25, 40))
        )
        top.append((10 + i, index.n_cells, index))
    axis = "k" if rng.random() < 0.75 else "l"
    top_value = 2 if small and axis == "k" and rng.random() < 0.7 else 6
    values = sorted(rng.sample(range(1, top_value + 1), rng.randint(1, top_value)))
    algos = rng.sample(ALGORITHMS[:5], rng.randint(1, 5))
    if rng.random() < (0.6 if small else 0.15):
        algos.insert(rng.randrange(len(algos) + 1), "oracle")
    budget = rng.choice((baselines.DEFAULT_NODE_BUDGET, rng.randint(5, 600)))
    config = RunConfig(
        graph=inputs,
        actions=inputs,
        k=rng.randint(1, 3),
        l=rng.randint(1, 3),
        seed=rng.randrange(1000),
        node_budget=budget,
    )
    return config, axis, values, algos, top


def outcome(run):
    try:
        return "ok", run()
    except FollowupsError as exc:
        return type(exc), str(exc)


def sweep_bytes(result, out) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in write_sweep_csv(result, out)}


def test_sweep_matches_per_value_reference(tmp_path, monkeypatch):
    inputs = tmp_path / "inputs.tsv"
    inputs.write_text("")
    covered = Counter()
    for i in range(INSTANCES):
        rng = random.Random(86_000 + i)
        config, axis, values, algos, top = random_case(rng, inputs)
        monkeypatch.setattr(harness, "_top_indexes", lambda config: ([], iter(top)))
        kind, got = outcome(lambda: sweep(config, axis, values, algos))
        ref_kind, ref = outcome(lambda: reference_sweep(config, axis, values, algos))
        assert (kind, kind != "ok" and got) == (ref_kind, ref_kind != "ok" and ref), i
        if kind != "ok":
            covered["error"] += 1
            covered["budget-trips"] += kind is ResourceLimitError and "node budget" in got
            covered["oracle-guard"] += kind is ResourceLimitError and "oracle guard" in got
            continue
        assert (got.axis, got.influencers) == (ref.axis, ref.influencers), i
        for point, ref_point in zip(got.points, ref.points, strict=True):
            assert point.value == ref_point.value, i
            assert point.coverages == ref_point.coverages, i
            assert point.medians == ref_point.medians, i
            assert list(point.millis) == list(ref_point.millis), i
        assert sweep_bytes(got, tmp_path / f"got{i}") == sweep_bytes(ref, tmp_path / f"ref{i}"), i
        covered["ok"] += 1
        covered.update(algos)
        covered["axis-l"] += axis == "l"
        covered["values-start-above-1"] += values[0] > 1
        if axis == "k":
            largest = values[-1]
            indexes = [index for _, _, index in top]
            covered["greedy-stops-early"] += "greedy" in algos and any(
                len(list(islice(miner.greedy_explanations(index, config.l), largest))) < largest for index in indexes
            )
            covered["most-popular-truncates"] += "most-popular" in algos and any(
                index.n_predicates < largest * config.l for index in indexes
            )
    for case in (
        "greedy-stops-early", "most-popular-truncates", "values-start-above-1",
        "budget-trips", "oracle-guard", "axis-l", *ALGORITHMS,
    ):
        assert covered[case] >= 5, (case, covered)
    assert covered["ok"] >= 100, covered


def explanations_of(eset) -> list[tuple]:
    return [(e.predicates, e.covered_bits, e.raw_coverage, e.marginal_coverage) for e in eset]


def test_each_run_is_the_prefix_of_its_stream():
    covered = Counter()
    for i in range(INSTANCES):
        rng = random.Random(87_000 + i)
        index = random_attribute_instance(rng, max_cells=rng.choice((15, 60, 200)), max_predicates=rng.choice((6, 15, 40)))
        k, l, seed = rng.randint(1, 6), rng.randint(1, 3), rng.randrange(1000)
        budget = rng.choice((baselines.DEFAULT_NODE_BUDGET, rng.randint(5, 600)))
        for algo, stream in STREAMS.items():
            kind, eset = outcome(lambda: run_algorithm(algo, index, k, l, seed, budget))
            ref_kind, prefix = outcome(lambda: list(islice(stream(index, l, seed, budget), k)))
            assert (kind, kind != "ok" and eset) == (ref_kind, ref_kind != "ok" and prefix), (i, algo)
            if kind != "ok":
                covered[f"{algo}-error"] += 1
                continue
            assert explanations_of(eset.explanations) == explanations_of(prefix), (i, algo)
            short = len(prefix) < k or any(len(e.predicates) < l for e in prefix)
            assert eset.truncated == (algo == "most-popular" and short), (i, algo)
            covered[f"{algo}-truncated"] += eset.truncated
            covered[f"{algo}-short"] += len(prefix) < k
    for case in ("most-popular-truncated", "greedy-short", "exhaustive-error"):
        assert covered[case] >= 5, (case, covered)
