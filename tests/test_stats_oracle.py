"""Differential test: the popcount propagation pass `global_followup_stats`
and the counts-only `influencer_followup_counts` against the per-cell decode
they replaced, and against single-influencer sets."""
from __future__ import annotations

import random
from collections import Counter

from conftest import reference_followup_stats
from followups.ingestion import (
    ActionLog,
    SocialGraph,
    build_propagation_graph,
    compute_followup_set,
    global_followup_stats,
    influencer_followup_counts,
)

INSTANCES = 240


def random_instance(rng: random.Random):
    """A graph, a log over it and a max delay (often none).

    Timestamps come from a narrow range, so performers often tie. One
    instance in five has up to 90 users, so bitsets span several machine
    words.
    """
    n_users = rng.randint(80, 90) if rng.random() < 0.2 else rng.randint(2, 16)
    users = list(range(1, n_users + 1))
    density = rng.uniform(0.03, 0.5) if n_users < 20 else rng.uniform(0.05, 0.12)
    graph = SocialGraph.from_arcs(
        ((u, v) for u in users for v in users if u != v and rng.random() < density), users
    )
    records = []
    for a in range(rng.randint(1, 8)):
        for u in rng.sample(users, rng.randint(1, n_users)):
            records.append((u, f"a{a}", rng.randint(0, rng.choice((2, 6, 40)))))
    max_delay = rng.choice((None, None, 1, 2, 5))
    return graph, ActionLog(records), max_delay


def features(graph, log, max_delay) -> set[str]:
    """Which of the cases the differential test must cover this instance hits."""
    seen = set()
    if max_delay is not None:
        seen.add("max-delay")
    for action in log.actions:
        performers = log.performers(action)
        if any(v in graph.followers(u) for u, t in performers for v, s in performers if s == t and v != u):
            seen.add("tie-on-an-arc")
        arcs = build_propagation_graph(graph, log, action, max_delay)
        on_arc = set(arcs[::2]).union(*arcs[1::2])
        if not on_arc:
            seen.add("action-without-arcs")
        elif len(on_arc) < len(performers):
            seen.add("isolated-performer")
        if len(on_arc) > 64:
            seen.add("wide-bitset")
    return seen


def test_stats_match_per_cell_reference():
    covered = Counter()
    for i in range(INSTANCES):
        rng = random.Random(73_000 + i)
        graph, log, max_delay = random_instance(rng)
        covered.update(features(graph, log, max_delay))
        got = global_followup_stats(graph, log, max_delay)
        ref = reference_followup_stats(graph, log, max_delay)
        for name in ("influencer_counts", "action_cells", "follower_cells"):
            mine, theirs = getattr(got, name), getattr(ref, name)
            assert mine.keys() == theirs.keys(), (i, name)
            for key in theirs:
                assert mine[key] == theirs[key], (i, name, key)
        assert influencer_followup_counts(graph, log, max_delay) == ref.influencer_counts, i
        # kept arcs are each action's DAG as built, for the actions with an arc
        kept = global_followup_stats(graph, log, max_delay)
        assert kept[:3] == got[:3], i
        dags = {a: build_propagation_graph(graph, log, a, max_delay) for a in log.actions}
        assert kept.arcs == {a: arcs for a, arcs in dags.items() if arcs}, i
        if i % 8 == 0:
            for user in sorted(graph.users):
                n = len(compute_followup_set(graph, log, user, max_delay))
                assert got.influencer_counts.get(user, 0) == n, (i, user)

    for case in ("max-delay", "tie-on-an-arc", "isolated-performer", "action-without-arcs", "wide-bitset"):
        assert covered[case] >= 5, (case, covered)
