"""Coverage functions, the lazy greedy vs. the eager reference, annotation."""
from __future__ import annotations

import heapq
import random

import pytest

from conftest import followup_set, index_from_postings, postings_of, random_attribute_instance, scan_annotation

from followups.featurization import ACTION, USER, AttributeTable, build_predicate_index
from followups.ingestion import Cell, FollowupSet
from followups.miner import (
    annotate,
    coverage_of_explanation,
    coverage_of_set,
    eager_greedy,
    explanation_set_doc,
    explanation_set_json,
    mine_explanations,
    next_explanation,
)

CRAFTED = [[0, 1, 2, 3], [0, 1, 2], [4, 5], [4, 5]]


# --- coverage functions -----------------------------------------------------

def test_coverage_empty_conjunction_is_universe():
    index = index_from_postings([[0, 1], [1, 2]], n_cells=5)
    assert coverage_of_explanation(index, []) == 5


def test_coverage_unknown_predicate():
    index = index_from_postings([[0]])
    with pytest.raises(ValueError):
        coverage_of_explanation(index, [7])


def scan_coverage(index, pids) -> int:
    return sum(
        1
        for c in range(index.n_cells)
        if all(index.bits[p] >> c & 1 for p in pids)
    )


@pytest.mark.parametrize("seed", range(5))
def test_coverage_matches_per_cell_scan(seed):
    rng = random.Random(seed)
    index = random_attribute_instance(rng, max_cells=20)
    pids = rng.sample(range(index.n_predicates), min(3, index.n_predicates))
    assert coverage_of_explanation(index, pids) == scan_coverage(index, pids)


def test_coverage_of_set_single_and_idempotent():
    index = index_from_postings(CRAFTED)
    one = coverage_of_explanation(index, [0, 1])
    assert coverage_of_set(index, [[0, 1]]) == one
    assert coverage_of_set(index, [[0, 1], [0, 1]]) == one


@pytest.mark.parametrize("seed", range(5))
def test_coverage_of_set_matches_union_oracle(seed):
    rng = random.Random(seed + 50)
    index = random_attribute_instance(rng, max_cells=30)
    explanations = [
        rng.sample(range(index.n_predicates), min(rng.randint(1, 3), index.n_predicates))
        for _ in range(3)
    ]
    union = set()
    for pids in explanations:
        union |= {
            c
            for c in range(index.n_cells)
            if all(index.bits[p] >> c & 1 for p in pids)
        }
    assert coverage_of_set(index, explanations) == len(union)


# --- mining ------------------------------------------------------------------

def test_mine_single_predicate_full_coverage():
    index = index_from_postings([[0, 1, 2, 3, 4]])
    eset = mine_explanations(index, 1, 1)
    assert len(eset.explanations) == 1
    assert eset.relative_coverage == 1.0


def test_mine_crafted_instance():
    index = index_from_postings(CRAFTED)
    eset = mine_explanations(index, 2, 2)
    assert [e.predicates for e in eset.explanations] == [(0, 1), (2, 3)]
    assert [e.marginal_coverage for e in eset.explanations] == [3, 2]
    assert eset.total_coverage == 5


def test_mine_empty_followup_set():
    fset = FollowupSet(1, [], [])
    index = build_predicate_index(fset, AttributeTable(USER), AttributeTable(ACTION))
    eset = mine_explanations(index, 3, 2)
    assert eset.explanations == []
    assert eset.total_coverage == 0
    assert eset.relative_coverage == 0.0


def test_mine_argument_validation():
    index = index_from_postings([[0]])
    with pytest.raises(ValueError):
        mine_explanations(index, 0, 1)
    with pytest.raises(ValueError):
        mine_explanations(index, 1, 0)


def test_mine_stops_when_everything_is_covered():
    index = index_from_postings([[0, 1], [0, 1]])
    eset = mine_explanations(index, 5, 1)
    assert len(eset.explanations) == 1  # further rows would add nothing
    assert eset.total_coverage == 2


def test_mine_drops_explanations_padded_to_zero_marginal():
    # l=2 forces a pad whose intersection is empty; the vacuous row is
    # dropped and mining stops early rather than emitting it
    index = index_from_postings([[0, 1, 2], [3]])
    eset = mine_explanations(index, 1, 2)
    assert eset.explanations == []
    assert eset.total_coverage == 0


def test_mine_padding_keeps_positive_intersections():
    index = index_from_postings([[0, 1, 2], [0, 3]])
    eset = mine_explanations(index, 1, 2)
    assert eset.explanations[0].predicates == (0, 1)
    assert eset.explanations[0].raw_coverage == 1


def test_mine_truncates_when_catalog_smaller_than_l():
    index = index_from_postings([[0, 1, 2]])
    eset = mine_explanations(index, 1, 3)
    assert eset.explanations[0].predicates == (0,)
    assert eset.total_coverage == 3


# --- next_explanation as a standalone step ------------------------------------

def build_heap(index):
    heap = [(-len(posting), pid, 0) for pid, posting in enumerate(postings_of(index))]
    heapq.heapify(heap)
    return heap


def test_next_explanation_single_predicate_marks_cells():
    index = index_from_postings([[0, 1, 2]])
    expl = next_explanation(build_heap(index), index.full_mask, index, 1, 0)
    assert expl.predicates == (0,)
    assert expl.covered_bits == 0b111
    assert expl.marginal_coverage == 3


def test_next_explanation_crafted_first_iteration():
    index = index_from_postings(CRAFTED)
    expl = next_explanation(build_heap(index), index.full_mask, index, 2, 0)
    assert expl.predicates == (0, 1)
    assert expl.raw_coverage == 3


def test_next_explanation_tie_breaks_to_lower_id():
    index = index_from_postings([[0, 1], [0, 1]])
    expl = next_explanation(build_heap(index), index.full_mask, index, 1, 0)
    assert expl.predicates == (0,)


# --- lazy/eager equivalence -----------------------------------------------------

def test_eager_matches_on_worked_examples():
    for postings, k, l in [
        ([[0, 1, 2, 3, 4]], 1, 1),
        (CRAFTED, 2, 2),
        ([[0, 1], [0, 1]], 5, 1),
        ([[0, 1, 2], [3]], 1, 2),
    ]:
        index = index_from_postings(postings)
        lazy = mine_explanations(index, k, l)
        eager = eager_greedy(index, k, l)
        assert [e.predicates for e in lazy.explanations] == [e.predicates for e in eager.explanations]
        assert lazy.total_coverage == eager.total_coverage


def test_eager_k1_l1_is_most_covering_predicate():
    index = index_from_postings([[0], [0, 1, 2], [3, 4]])
    eset = eager_greedy(index, 1, 1)
    assert eset.explanations[0].predicates == (1,)


@pytest.mark.parametrize("seed", range(20))
def test_lazy_equals_eager_randomized(seed):
    rng = random.Random(1000 + seed)
    index = random_attribute_instance(rng, max_cells=200, max_predicates=30)
    k = rng.randint(1, 5)
    l = rng.randint(1, 4)
    lazy = mine_explanations(index, k, l)
    eager = eager_greedy(index, k, l)
    assert [e.predicates for e in lazy.explanations] == [e.predicates for e in eager.explanations]
    assert [e.covered for e in lazy.explanations] == [e.covered for e in eager.explanations]
    assert lazy.marked == eager.marked
    assert lazy.total_coverage == eager.total_coverage


# --- objective-function properties ------------------------------------------------

def random_explanations(rng, index, n, size):
    return [
        tuple(rng.sample(range(index.n_predicates), min(size, index.n_predicates)))
        for _ in range(n)
    ]


@pytest.mark.parametrize("seed", range(5))
def test_set_coverage_monotone_and_submodular(seed):
    rng = random.Random(seed)
    index = random_attribute_instance(rng, max_cells=60)
    for _ in range(100):
        pool = random_explanations(rng, index, 4, rng.randint(1, 3))
        small = pool[: rng.randint(0, 2)]
        big = small + pool[2:3]
        extra = pool[3]
        gain_small = coverage_of_set(index, small + [extra]) - coverage_of_set(index, small)
        gain_big = coverage_of_set(index, big + [extra]) - coverage_of_set(index, big)
        assert gain_small >= gain_big >= 0


@pytest.mark.parametrize("seed", range(5))
def test_explanation_coverage_antitone_and_supermodular(seed):
    rng = random.Random(100 + seed)
    index = random_attribute_instance(rng, max_cells=60)
    if index.n_predicates < 4:
        pytest.skip("instance too small")
    for _ in range(100):
        pids = rng.sample(range(index.n_predicates), 4)
        small = pids[: rng.randint(0, 2)]
        big = small + [pids[2]]
        p = pids[3]
        loss_small = coverage_of_explanation(index, small + [p]) - coverage_of_explanation(index, small)
        loss_big = coverage_of_explanation(index, big + [p]) - coverage_of_explanation(index, big)
        assert loss_small <= loss_big <= 0


@pytest.mark.parametrize("seed", range(6))
def test_bookkeeping_identities(seed):
    rng = random.Random(300 + seed)
    index = random_attribute_instance(rng, max_cells=150)
    eset = mine_explanations(index, rng.randint(1, 4), rng.randint(1, 3))
    union = set()
    for e in eset.explanations:
        union |= set(e.covered)
    assert eset.total_coverage == len(union)
    assert set(eset.marked) == union
    assert eset.total_coverage == sum(e.marginal_coverage for e in eset.explanations)
    assert sum(e.raw_coverage for e in eset.explanations) >= eset.total_coverage
    for e in eset.explanations:
        assert e.raw_coverage >= e.marginal_coverage
        assert e.raw_coverage == coverage_of_explanation(index, e.predicates)


# --- annotation --------------------------------------------------------------------

def demo_instance():
    """Two actions x two followers with gendered followers and genre'd actions."""
    cells = [Cell("a", 2), Cell("a", 3), Cell("b", 2), Cell("b", 3)]
    fset = followup_set(1, cells, ["a", "b", "c"])  # c got no followups
    user_attrs = AttributeTable(USER)
    user_attrs.add(2, "gender", "male")
    user_attrs.add(3, "gender", "female")
    action_attrs = AttributeTable(ACTION)
    for action, genre in (("a", "comedy"), ("b", "drama"), ("c", "comedy")):
        action_attrs.add(action, "genre", genre)
    return build_predicate_index(fset, user_attrs, action_attrs)


def test_annotate_counts_entities_not_cells():
    index = demo_instance()
    comedy = index.pid_of(ACTION, "genre", "comedy")
    male = index.pid_of(USER, "gender", "male")
    eset = mine_explanations(index, 1, 2)
    expl = next(
        e
        for e in [eset.explanations[0]]
    )
    note = annotate(expl, index)
    # regardless of what got mined, recheck the two reference conjunctions
    from followups.miner import Explanation

    ref = Explanation((comedy, male), 0b1, 1, 1)
    note = annotate(ref, index)
    assert note.actions == 2  # actions a and c are comedies the influencer performed
    assert note.followers == 1  # follower 2 is the only male
    assert note.followups == 1


def test_annotate_no_user_predicates_counts_all_active_followers():
    index = demo_instance()
    comedy = index.pid_of(ACTION, "genre", "comedy")
    from followups.miner import Explanation

    note = annotate(Explanation((comedy,), 0b11, 2, 2), index)
    assert note.followers == 2


def test_annotate_independence_under_permutation():
    index = demo_instance()
    comedy = index.pid_of(ACTION, "genre", "comedy")
    male = index.pid_of(USER, "gender", "male")
    female = index.pid_of(USER, "gender", "female")
    from followups.miner import Explanation

    a1 = annotate(Explanation((comedy, male), 0, 0, 0), index)
    a2 = annotate(Explanation((comedy, female), 0, 0, 0), index)
    assert a1.actions == a2.actions  # user predicates never move the action count


@pytest.mark.parametrize("seed", range(4))
def test_annotate_matches_entity_scan(seed):
    rng = random.Random(700 + seed)
    index = random_attribute_instance(rng, max_cells=10 * (seed + 1))
    eset = mine_explanations(index, 2, 2)
    for expl in eset.explanations:
        assert annotate(expl, index) == scan_annotation(expl, index)


# --- serialization -------------------------------------------------------------------

def test_doc_schema_and_bytes_determinism():
    index = demo_instance()
    eset = mine_explanations(index, 2, 2)
    doc = explanation_set_doc(eset, index)
    assert list(doc) == [
        "influencer",
        "total_followups",
        "explanations",
        "total_coverage",
        "relative_coverage",
    ]
    assert doc["influencer"] == 1
    assert doc["total_followups"] == 4
    for row in doc["explanations"]:
        assert list(row) == ["predicates", "actions", "followers", "followups"]
        for pred in row["predicates"]:
            assert list(pred) == ["dimension", "attribute", "value"]
    assert explanation_set_json(eset, index) == explanation_set_json(eset, index)


def test_doc_includes_algorithm_for_baselines():
    index = demo_instance()
    eset = mine_explanations(index, 1, 1)
    eset.algorithm = "random"
    eset.seed = 7
    doc = explanation_set_doc(eset, index)
    assert doc["algorithm"] == "random"
    assert doc["seed"] == 7
