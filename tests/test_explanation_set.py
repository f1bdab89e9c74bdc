"""Every algorithm's `ExplanationSet` carries the coverage of its own
explanations and the tags of its algorithm, on random, empty and tiny
indexes."""
from __future__ import annotations

import random

import pytest

from conftest import index_from_postings, random_attribute_instance

from followups import harness
from followups.errors import ConfigError
from followups.featurization import ACTION, USER, AttributeTable, build_predicate_index
from followups.ingestion import FollowupSet

SEEDS = range(12)
SHAPES = [(1, 1), (2, 2), (3, 1), (4, 3)]


def empty_index():
    return build_predicate_index(FollowupSet(1, [], []), AttributeTable(USER), AttributeTable(ACTION))


def tiny_index(rng: random.Random):
    """At most 8 predicates over at most 12 cells: within the oracle's guard."""
    n_cells = rng.randint(1, 12)
    postings = [sorted(rng.sample(range(n_cells), rng.randint(1, n_cells))) for _ in range(rng.randint(1, 8))]
    return index_from_postings(postings, n_cells=n_cells)


def check_set(algo, index, k, l, seed):
    eset = harness.run_algorithm(algo, index, k, l, seed)
    union = 0
    for expl in eset.explanations:
        union |= expl.covered_bits
    assert eset.marked_bits == union
    assert eset.total_coverage == bin(union).count("1")
    expected = eset.total_coverage / index.n_cells if index.n_cells else 0.0
    assert eset.relative_coverage == expected
    assert type(eset.relative_coverage) is float
    assert eset.algorithm == (None if algo in ("greedy", "eager") else algo)
    assert eset.seed == (seed if algo == "random" else None)
    assert eset.truncated is (algo == "most-popular" and index.n_predicates < k * l)


@pytest.mark.parametrize("algo", [a for a in harness.ALGORITHMS if a != "oracle"])
@pytest.mark.parametrize("seed", SEEDS)
def test_sequential_set_derives_its_coverage(algo, seed):
    rng = random.Random(seed)
    index = random_attribute_instance(rng, max_cells=60, max_predicates=20)
    for k, l in SHAPES:
        check_set(algo, index, k, l, seed)


@pytest.mark.parametrize("algo", harness.ALGORITHMS)
def test_empty_index_set_derives_its_coverage(algo):
    index = empty_index()
    for k, l in ((1, 1), (2, 3)):
        if algo == "random":  # no catalog to draw l predicates from
            with pytest.raises(ConfigError):
                harness.run_algorithm(algo, index, k, l, 5)
        else:
            check_set(algo, index, k, l, 5)


@pytest.mark.parametrize("algo", harness.ALGORITHMS)
@pytest.mark.parametrize("seed", SEEDS)
def test_tiny_index_set_derives_its_coverage(algo, seed):
    rng = random.Random(1000 + seed)
    index = tiny_index(rng)
    for k in (1, 2):
        for l in range(1, min(3, index.n_predicates) + 1):
            check_set(algo, index, k, l, seed)
