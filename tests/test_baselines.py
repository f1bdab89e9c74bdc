"""Random / most-popular / exhaustive baselines and the brute-force oracle."""
from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import pytest

from conftest import index_from_postings, random_attribute_instance, reference_weighted_draws

from followups.baselines import (
    _weighted_draws,
    brute_force_oracle,
    exhaustive_baseline,
    most_popular_baseline,
    nominal_combination_count,
    random_baseline,
)
from followups.errors import ConfigError, ResourceLimitError
from followups.miner import (
    coverage_of_set,
    explanation_set_doc,
    mine_explanations,
)

CRAFTED = [[0, 1, 2, 3], [0, 1, 2], [4, 5], [4, 5]]


# --- random ------------------------------------------------------------------

def test_random_catalog_of_exactly_l_is_forced():
    index = index_from_postings([[0, 1], [2]])
    eset = random_baseline(index, 1, 2, seed=123)
    assert sorted(eset.explanations[0].predicates) == [0, 1]


def test_random_same_seed_same_output():
    index = index_from_postings(CRAFTED, n_cells=6)
    a = random_baseline(index, 3, 2, seed=9)
    b = random_baseline(index, 3, 2, seed=9)
    assert [e.predicates for e in a.explanations] == [e.predicates for e in b.explanations]
    assert a.total_coverage == b.total_coverage


def test_random_requires_catalog_at_least_l():
    index = index_from_postings([[0]])
    with pytest.raises(ConfigError):
        random_baseline(index, 1, 2, seed=0)


def test_random_draws_without_replacement():
    index = index_from_postings(CRAFTED)
    for seed in range(30):
        eset = random_baseline(index, 2, 3, seed=seed)
        for e in eset.explanations:
            assert len(set(e.predicates)) == len(e.predicates) == 3


def test_weighted_first_pick_frequency():
    # weights {3, 1}: the heavy predicate should open ~75% of draws
    rng = random.Random(42)
    hits = sum(1 for _ in range(100_000) if _weighted_draws(rng, [(0, 3), (1, 1)], 1)[0] == 0)
    assert abs(hits / 100_000 - 0.75) < 0.01


def test_weighted_draws_match_per_draw_scan():
    """Prefix sums and bisection pick the index the per-draw scan picks for
    every `rng.random()` value, and consume the rng alike."""
    sizes = Counter()
    for seed in range(240):
        rng = random.Random(3_000 + seed)
        size = rng.choice((1, 1, 2, 3, rng.randint(4, 40)))
        high = rng.choice((1, 3, 1000))  # 1: all weights tie
        pool = [(pid, rng.randint(1, high)) for pid in rng.sample(range(100), size)]
        sizes["single" if size == 1 else "tied" if len({w for _, w in pool}) < size else "distinct"] += 1
        got, ref = random.Random(seed), random.Random(seed)
        for _ in range(3):
            count = rng.randint(1, size)
            assert _weighted_draws(got, pool, count) == reference_weighted_draws(ref, pool, count), seed
    assert min(sizes.values()) >= 20, sizes


class FixedRandom:
    """An rng whose `random()` returns the given values in turn."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self) -> float:
        return next(self._values)


@pytest.mark.parametrize("value", [0.0, 0.25, 0.5, 0.75, 1 - 2**-53])
def test_weighted_draws_on_prefix_boundaries(value):
    """A value times the total of 4 that lands exactly on a prefix sum (1 or
    3) picks the next pair."""
    pool = [(7, 1), (8, 2), (9, 1)]
    expected = reference_weighted_draws(FixedRandom([value]), pool, 1)
    assert _weighted_draws(FixedRandom([value]), pool, 1) == expected


def test_random_coverage_bookkeeping():
    index = index_from_postings(CRAFTED)
    eset = random_baseline(index, 3, 2, seed=5)
    assert eset.total_coverage == coverage_of_set(index, [e.predicates for e in eset.explanations])
    doc = explanation_set_doc(eset, index)
    assert doc["algorithm"] == "random"
    assert doc["seed"] == 5


# --- most popular ---------------------------------------------------------------

def test_most_popular_packs_by_rank():
    # popularity 5, 4, 3, 2 over disjoint-ish postings
    index = index_from_postings([[0, 1, 2, 3, 4], [0, 1, 2, 3], [0, 1, 2], [5, 6]])
    eset = most_popular_baseline(index, 2, 2)
    assert [e.predicates for e in eset.explanations] == [(0, 1), (2, 3)]
    assert not eset.truncated


def test_most_popular_truncates_and_flags():
    index = index_from_postings([[0, 1], [1, 2], [2, 3]])
    eset = most_popular_baseline(index, 2, 2)
    assert len(eset.explanations[1].predicates) == 1
    assert eset.truncated
    assert explanation_set_doc(eset, index)["truncated"] is True


def test_most_popular_sigma_matches_recomputation():
    rng = random.Random(3)
    index = random_attribute_instance(rng, max_cells=60)
    eset = most_popular_baseline(index, 3, 2)
    assert eset.total_coverage == coverage_of_set(index, [e.predicates for e in eset.explanations])


# --- exhaustive -------------------------------------------------------------------

def naive_exhaustive_combo(index, l, unmarked):
    """Reference per-iteration argmax over every l-combination, no pruning."""
    best_cov, best = 0, None
    for combo in combinations(range(index.n_predicates), l):
        inter = unmarked
        for pid in combo:
            inter &= index.bits[pid]
        cov = inter.bit_count()
        if cov > best_cov:
            best_cov, best = cov, combo
    return best


def test_exhaustive_crafted_equals_greedy():
    index = index_from_postings(CRAFTED)
    eset = exhaustive_baseline(index, 2, 2)
    assert eset.total_coverage == 5
    greedy = mine_explanations(index, 2, 2)
    assert eset.total_coverage == greedy.total_coverage


def test_exhaustive_k1_l1_is_most_popular_predicate():
    index = index_from_postings([[0], [0, 1, 2], [3]])
    eset = exhaustive_baseline(index, 1, 1)
    assert eset.explanations[0].predicates == (1,)


def test_exhaustive_first_iteration_beats_greedy_when_greedy_is_myopic():
    # the big predicate traps greedy; the best pair avoids it entirely
    index = index_from_postings([[0, 1, 2, 3, 4, 5], [6, 7, 8], [6, 7, 8]])
    greedy = mine_explanations(index, 1, 2)
    exhaustive = exhaustive_baseline(index, 1, 2)
    g_marginal = greedy.explanations[0].marginal_coverage if greedy.explanations else 0
    assert exhaustive.explanations[0].marginal_coverage == 3
    assert exhaustive.explanations[0].marginal_coverage >= g_marginal


@pytest.mark.parametrize("seed", range(8))
def test_exhaustive_pruned_equals_naive(seed):
    rng = random.Random(2000 + seed)
    index = random_attribute_instance(rng, max_cells=40, max_predicates=12)
    k = rng.randint(1, 3)
    l = rng.randint(1, min(3, index.n_predicates))
    eset = exhaustive_baseline(index, k, l)
    unmarked = index.full_mask
    expected = []
    for _ in range(k):
        combo = naive_exhaustive_combo(index, l, unmarked)
        if combo is None:
            break
        expected.append(combo)
        inter = index.full_mask
        for pid in combo:
            inter &= index.bits[pid]
        unmarked &= ~inter
    assert [e.predicates for e in eset.explanations] == expected


def test_exhaustive_budget_guard():
    index = index_from_postings([[c] for c in range(10)] + [[0, c] for c in range(1, 10)])
    with pytest.raises(ResourceLimitError):
        exhaustive_baseline(index, 1, 3, node_budget=10)


def test_nominal_combination_count():
    index = index_from_postings(CRAFTED)
    assert nominal_combination_count(index, 2) == 6
    assert nominal_combination_count(index, 2, unmarked=0b110000) == 1  # only p2,p3 remain


# --- brute-force oracle --------------------------------------------------------------

def test_oracle_single_predicate():
    index = index_from_postings([[0, 1, 2]])
    cov, eset = brute_force_oracle(index, 1, 1)
    assert cov == 3
    assert eset.explanations[0].predicates == (0,)


def test_oracle_crafted_instance():
    index = index_from_postings(CRAFTED)
    cov, eset = brute_force_oracle(index, 2, 2)
    assert cov == 5
    assert explanation_set_doc(eset, index)["algorithm"] == "oracle"


def test_oracle_guard_rails():
    index = index_from_postings([[0]] * 13)
    with pytest.raises(ResourceLimitError):
        brute_force_oracle(index, 1, 1)
    small = index_from_postings(CRAFTED)
    with pytest.raises(ResourceLimitError):
        brute_force_oracle(small, 3, 1)
    with pytest.raises(ResourceLimitError):
        brute_force_oracle(small, 1, 4)
    # raised rails make the same call legal
    cov, _ = brute_force_oracle(small, 3, 1, max_k=3)
    assert cov == 6


@pytest.mark.parametrize("k, l", [(0, 1), (1, 0)])
def test_oracle_k_l_floor(k, l):
    with pytest.raises(ValueError, match="^k and l must be >= 1$"):
        brute_force_oracle(index_from_postings(CRAFTED), k, l)


def test_oracle_witness_is_lexicographically_least():
    # two optimal singletons: predicates 0 and 1 cover the same two cells
    index = index_from_postings([[0, 1], [0, 1]])
    _, eset = brute_force_oracle(index, 1, 1)
    assert eset.explanations[0].predicates == (0,)


@pytest.mark.parametrize("seed", range(6))
def test_optimality_ordering(seed):
    rng = random.Random(3000 + seed)
    index = random_attribute_instance(rng, max_cells=30, max_predicates=10)
    if index.n_predicates < 2:
        pytest.skip("degenerate instance")
    k, l = 2, 2
    opt, _ = brute_force_oracle(index, k, l)
    exh = exhaustive_baseline(index, k, l).total_coverage
    pop = most_popular_baseline(index, k, l).total_coverage
    rnd = random_baseline(index, k, l, seed=seed).total_coverage
    assert opt >= exh >= pop
    assert exh >= rnd
    assert exh >= (1 - 1 / 2.718281828459045) * opt
