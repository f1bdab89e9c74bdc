"""Differential test: the batched `followup_sets`, on the propagation pass's
kept arcs, against the single-influencer reference `compute_followup_set`,
and against the propagation pass's counts."""
from __future__ import annotations

import random
from collections import Counter

import pytest

from followups.featurization import (
    ACTION,
    TARGET_FOLLOWER,
    TARGET_INFLUENCER,
    USER,
    AttributeTable,
    PredicateCatalog,
    build_predicate_index,
)
from followups.ingestion import (
    ActionLog,
    SocialGraph,
    build_propagation_graph,
    compute_followup_set,
    followup_sets,
    global_followup_stats,
)

INSTANCES = 240


def random_instance(rng: random.Random):
    """A small graph and log, a max delay (often none) and a top-N list.

    Timestamps come from a narrow range, so performers often tie. The list
    is a random sample of the users in random order: it may hold users with
    no actions, and it usually leaves some performers of an action out.
    """
    users = list(range(1, rng.randint(3, 14)))
    density = rng.uniform(0.1, 0.5)
    graph = SocialGraph.from_arcs(
        ((u, v) for u in users for v in users if u != v and rng.random() < density), users
    )
    records = []
    for a in range(rng.randint(1, 7)):
        for u in rng.sample(users, rng.randint(1, len(users))):
            records.append((u, f"a{a}", rng.randint(0, 6)))
    log = ActionLog(records)
    max_delay = rng.choice((None, None, 1, 2, 3))
    influencers = rng.sample(users, rng.randint(1, len(users)))
    return graph, log, max_delay, influencers


def random_catalog(rng: random.Random, graph, log) -> PredicateCatalog:
    """A catalog over one user and one action attribute of a few values,
    which the tables give most users and actions."""
    user_attrs, action_attrs = AttributeTable(USER), AttributeTable(ACTION)
    for table, entities in ((user_attrs, sorted(graph.users)), (action_attrs, log.actions)):
        for entity in entities:
            if rng.random() < 0.8:
                table.add(entity, "x", f"v{rng.randint(0, 2)}")
    return PredicateCatalog(user_attrs, action_attrs, target=rng.choice((TARGET_FOLLOWER, TARGET_INFLUENCER)))


def features(graph, log, max_delay, influencers, expected) -> set[str]:
    """Which of the cases the differential test must cover this instance hits."""
    seen = set()
    if max_delay is not None:
        seen.add("max-delay")
    listed = set(influencers)
    for fset in expected:
        if fset.actions_performed and not fset.cells:
            seen.add("actions-but-no-followups")
        if any(c.follower in listed for c in fset.cells):
            seen.add("influencers-reach-each-other")
    for action in {a for u in influencers for a in log.actions_of(u)}:
        performers = log.performers(action)
        if any(v in graph.followers(u) for u, t in performers for v, s in performers if s == t and v != u):
            seen.add("tie-on-an-arc")
        sources = build_propagation_graph(graph, log, action, max_delay)[::2]
        if not listed.issuperset(sources):
            seen.add("unlisted-source")
    return seen


def test_followup_sets_match_single_influencer_oracle():
    covered = Counter()
    for i in range(INSTANCES):
        rng = random.Random(57_000 + i)
        graph, log, max_delay, influencers = random_instance(rng)
        expected = [compute_followup_set(graph, log, u, max_delay) for u in influencers]
        stats = global_followup_stats(graph, log, max_delay)
        covered.update(features(graph, log, max_delay, influencers, expected))
        # its own rng, so that the instances stay those the thresholds were set on
        catalog = random_catalog(random.Random(58_000 + i), graph, log)

        got = list(followup_sets(log, influencers, stats.arcs))
        assert [f.influencer for f in got] == influencers, i
        for fset, ref in zip(got, expected):
            assert fset.runs == ref.runs, (i, fset.influencer)
            assert fset.cells == ref.cells, (i, fset.influencer)
            assert fset.actions_performed == ref.actions_performed, (i, fset.influencer)
            assert fset.active_followers == ref.active_followers, (i, fset.influencer)
            count = stats.influencer_counts.get(fset.influencer, 0)
            assert len(fset) == len(ref) == count, (i, fset.influencer)
            bits = build_predicate_index(ref, catalog).bits
            assert build_predicate_index(fset, catalog).bits == bits, (i, fset.influencer)
        assert stats.arcs == {}, i  # the batch consumed every kept arc

    for case in ("max-delay", "actions-but-no-followups", "influencers-reach-each-other",
                 "tie-on-an-arc", "unlisted-source"):
        assert covered[case] >= 5, (case, covered)


def test_followup_sets_input_order_and_duplicates():
    graph = SocialGraph.from_arcs([(1, 2), (2, 3)])
    log = ActionLog([(1, "a", 1), (2, "a", 2), (3, "a", 3)])
    arcs = global_followup_stats(graph, log).arcs
    assert [len(f) for f in followup_sets(log, [2, 1, 9], arcs)] == [1, 2, 0]
    with pytest.raises(ValueError, match="duplicate influencer"):
        next(followup_sets(log, [1, 1], {}))
