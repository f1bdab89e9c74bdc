"""Parsing, propagation DAGs, followup sets, and their brute-force oracle."""
from __future__ import annotations

import io
import random
import tracemalloc
from collections import Counter

import pytest

from followups.errors import ConfigError, NotFoundError, ParseError
from followups.ingestion import (
    ActionLog,
    Cell,
    FollowupSet,
    SocialGraph,
    build_propagation_graph,
    compute_followup_set,
    followup_histogram,
    global_followup_stats,
    parse_action_log,
    parse_social_graph,
    rank_influencers,
)


def graph_of(text: str) -> SocialGraph:
    return parse_social_graph(io.StringIO(text))


def log_of(text: str) -> ActionLog:
    return parse_action_log(io.StringIO(text))


CHAIN_GRAPH = "1\t2\n2\t3\n"
CHAIN_LOG = "1\ta\t1\n2\ta\t2\n3\ta\t3\n"


# --- parsing -------------------------------------------------------------

def test_parse_graph_basic():
    g = graph_of("1\t2\n1\t3")
    assert g.users == {1, 2, 3}
    assert g.n_arcs == 2
    assert g.followers(1) == (2, 3)


def test_parse_graph_deduplicates():
    assert graph_of("1\t2\n1\t2").n_arcs == 1


def test_parse_graph_self_arc_rejected():
    with pytest.raises(ParseError, match="line 1"):
        graph_of("1\t1")


def test_parse_graph_bad_columns_and_ids():
    with pytest.raises(ParseError, match="line 2"):
        graph_of("1\t2\n1\t2\t3")
    with pytest.raises(ParseError, match="non-integer"):
        graph_of("1\tbob")


def test_parse_graph_comments_and_blanks():
    g = graph_of("# a comment\n\n1\t2\n")
    assert g.n_arcs == 1


def test_parse_log_basic():
    log = log_of("1\ta\t5\n2\ta\t9")
    assert len(log) == 2
    assert log.performers("a") == ((1, 5), (2, 9))


def test_parse_log_keeps_earliest_duplicate():
    log = log_of("1\ta\t5\n1\ta\t3")
    assert len(log) == 1
    assert log.performers("a") == ((1, 3),)


def test_action_log_keeps_earliest_of_repeated_pair():
    log = ActionLog([(1, "a", 3), (1, "a", 1), (2, "a", 2)])
    assert len(log) == 2
    assert log.performers("a") == ((1, 1), (2, 2))
    assert log.actions_of(1) == ("a",)
    fset = compute_followup_set(graph_of("1\t2"), log, 1)
    assert fset.cells == (Cell("a", 2),)


@pytest.mark.parametrize("seed", range(20))
def test_lazy_user_index_equals_performers(seed):
    """`actions_of` scans the per-action rows. Whichever user it is first
    asked about, every answer equals one built from `performers`."""
    rng = random.Random(seed)
    records = [
        (rng.randint(1, 25), f"a{rng.randint(0, 15):02d}", rng.randint(0, 9))
        for _ in range(rng.randint(1, 120))
    ]
    expected: dict[int, list[str]] = {}
    reference = ActionLog(records)
    for action in reference.actions:
        for user, _ in reference.performers(action):
            expected.setdefault(user, []).append(action)
    unknown, negative = max(expected) + 1, -rng.randint(1, 5)
    users = sorted(expected) + [unknown, negative]
    for first in (rng.choice(sorted(expected)), unknown, negative):
        log = ActionLog(records)
        assert log.actions_of(first) == tuple(expected.get(first, ())), first
        for user in users:
            assert log.actions_of(user) == tuple(expected.get(user, ())), (first, user)
        assert log.actions_of(first) == tuple(expected.get(first, ())), first


def test_parse_log_empty():
    assert len(log_of("")) == 0


# Values the log must hold: sparse, negative, above 2**31, and beyond the
# signed 64-bit range that its compact columns store.
SMALL_IDS = (-7, -1, 0, 1, 2, 3, 10, 999_983, 2**31 - 1, 2**31, 2**31 + 5, 2**62)
BIG_VALUES = (2**63, 2**63 + 9, 2**100, -(2**63) - 1, 10**40)


def random_action_rows(rng: random.Random, big: bool) -> list[tuple[int, int]]:
    """One action's (user, time) rows: in (time, user) order with each user
    once, shuffled, or with repeated users and repeated pairs."""
    ids = list(SMALL_IDS) + [rng.randint(-(2**40), 2**40) for _ in range(4)]
    users = rng.sample(ids, rng.randint(1, 8))
    rows = sorted(((u, rng.randint(0, 6)) for u in users), key=lambda r: (r[1], r[0]))
    roll = rng.random()
    if roll < 0.3:
        rng.shuffle(rows)
    elif roll < 0.6:
        rows += [(u, t + rng.randint(-2, 2)) for u, t in rng.choices(rows, k=rng.randint(1, 4))]
        rows += rng.choices(rows, k=rng.randint(0, 2))  # repeated (user, time) pairs
        rng.shuffle(rows)
    if big:
        i = rng.randrange(len(rows))
        u, t = rows[i]
        rows[i] = (rng.choice(BIG_VALUES), t) if rng.random() < 0.5 else (u, 2**63 + rng.randint(0, 5))
    return rows


def random_log_records(rng: random.Random) -> list[tuple[int, str, int]]:
    """Records of a few actions, interleaved, each action's rows in their
    drawn order."""
    per_action = {f"a{i}": random_action_rows(rng, rng.random() < 0.2) for i in range(rng.randint(0, 6))}
    labels = [a for a, rows in per_action.items() for _ in rows]
    rng.shuffle(labels)
    pending = {a: iter(rows) for a, rows in per_action.items()}
    return [(u, a, t) for a in labels for u, t in [next(pending[a])]]


def test_action_log_matches_reference_log(monkeypatch):
    """`ActionLog` against `conftest.ReferenceLog` on seeded records; each
    of its three ways to finish an action runs at least 20 times."""
    from conftest import ReferenceLog

    from followups import ingestion

    finish = ingestion._earliest_rows
    paths = Counter()

    def counted(users, times):
        rows = finish(users, times)
        paths["in-order" if rows[0] is users else "sorted"] += 1
        paths["big-int"] += isinstance(users, list)
        return rows

    monkeypatch.setattr(ingestion, "_earliest_rows", counted)
    for seed in range(300):
        rng = random.Random(seed)
        records = random_log_records(rng)
        earliest: dict[tuple[int, str], int] = {}
        for user, action, time in records:
            if (user, action) not in earliest or time < earliest[user, action]:
                earliest[user, action] = time
        log, ref = ActionLog(records), ReferenceLog(earliest)
        assert len(log) == len(ref), seed
        assert log.actions == ref.actions, seed
        for action in ref.actions + ("absent",):
            assert log.performers(action) == ref.performers(action), (seed, action)
            assert tuple(map(tuple, log.columns(action))) == ref.columns(action), (seed, action)
        for user in {u for u, _ in earliest} | {12345, -(2**70)}:
            assert log.actions_of(user) == ref.actions_of(user), (seed, user)
    assert min(paths["in-order"], paths["sorted"], paths["big-int"]) >= 20, paths
    empty = ActionLog([])
    assert (len(empty), empty.actions, empty.performers("a"), empty.actions_of(1)) == (0, (), (), ())


def test_parse_action_log_memory_per_row():
    """The parsed log holds about two 8-byte values a row: under 40 bytes a
    row at its peak over 40,000 rows in 100 actions, some in (time, user)
    order and some shuffled."""
    rng = random.Random(5)
    lines = []
    for a in range(100):
        rows = sorted((rng.randint(0, 5_000), u) for u in rng.sample(range(10**9), 400))
        if a % 2:
            rng.shuffle(rows)
        lines += [f"{u}\ta{a:03d}\t{t}\n" for t, u in rows]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        log = parse_action_log(lines)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(log) == 40_000
    assert peak / len(lines) < 40, peak / len(lines)


def test_parse_log_errors():
    with pytest.raises(ParseError, match="line 1"):
        log_of("1\ta")
    with pytest.raises(ParseError, match="timestamp"):
        log_of("1\ta\tx")
    with pytest.raises(ParseError, match="negative"):
        log_of("1\ta\t-3")


# --- propagation graphs --------------------------------------------------

def test_propagation_respects_time_order():
    g = graph_of("1\t2")
    assert build_propagation_graph(g, log_of("1\ta\t5\n2\ta\t9"), "a") == (1, (2,))
    assert build_propagation_graph(g, log_of("1\ta\t9\n2\ta\t5"), "a") == ()


def test_propagation_tie_excluded():
    g = graph_of("1\t2")
    assert build_propagation_graph(g, log_of("1\ta\t5\n2\ta\t5"), "a") == ()


def test_propagation_unknown_action():
    with pytest.raises(NotFoundError):
        build_propagation_graph(graph_of("1\t2"), log_of("1\ta\t5"), "zzz")


def test_propagation_max_delay():
    g = graph_of("1\t2")
    log = log_of("1\ta\t0\n2\ta\t10")
    assert build_propagation_graph(g, log, "a", max_delay=5) == ()
    assert build_propagation_graph(g, log, "a", max_delay=10) == (1, (2,))


def test_propagation_graph_is_acyclic():
    rng = random.Random(7)
    graph, log = random_instance(rng, users=20, actions=6)
    for action in log.actions:
        arcs = build_propagation_graph(graph, log, action)
        it = iter(arcs)
        successors = dict(zip(it, it))
        # each source once, in time order
        assert arcs[::2] == tuple(u for u, _ in log.performers(action) if u in successors)
        seen = set()
        for u, _ in log.performers(action):  # time order, a topological order
            for v in successors.get(u, ()):
                assert v not in seen
            seen.add(u)


# --- followup sets vs. the transitive-closure oracle ----------------------

def oracle_followups(graph: SocialGraph, log: ActionLog) -> dict[int, set[Cell]]:
    """Per-action transitive closure computed by repeated DFS, straight from
    the definitions."""
    result: dict[int, set[Cell]] = {}
    for action in log.actions:
        performers = {u: t for u, t in log.performers(action)}
        adj = {
            u: [
                v
                for v in graph.followers(u)
                if v in performers and performers[u] < performers[v]
            ]
            for u in performers
        }
        for source in performers:
            stack = [source]
            seen = {source}
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            for v in seen - {source}:
                result.setdefault(source, set()).add(Cell(action, v))
    return result


def random_instance(rng: random.Random, users: int = 50, actions: int = 20):
    ids = list(range(1, users + 1))
    arcs = set()
    for _ in range(users * 3):
        u, v = rng.sample(ids, 2)
        arcs.add((u, v))
    graph = SocialGraph.from_arcs(arcs, ids)
    lines = []
    for i in range(actions):
        for u in rng.sample(ids, rng.randint(1, max(2, users // 3))):
            lines.append(f"{u}\ta{i:02d}\t{rng.randint(0, 30)}")
    log = log_of("\n".join(lines))
    return graph, log


def test_followups_chain_transitive():
    g = graph_of(CHAIN_GRAPH)
    log = log_of(CHAIN_LOG)
    fset = compute_followup_set(g, log, 1)
    assert set(fset.cells) == {Cell("a", 2), Cell("a", 3)}


def test_followups_no_performing_followers():
    g = graph_of("1\t2\n1\t3")
    fset = compute_followup_set(g, log_of("1\ta\t1"), 1)
    assert len(fset) == 0


def test_followups_user_without_actions():
    g = graph_of(CHAIN_GRAPH)
    assert len(compute_followup_set(g, log_of(CHAIN_LOG), 99)) == 0


def test_followups_back_ordered_edge_matches_oracle():
    # 4 users, 2 actions; the 3->4 arc is only time-respecting for action b.
    g = graph_of("1\t2\n2\t3\n3\t4\n")
    log = log_of(
        "1\ta\t1\n2\ta\t2\n3\ta\t5\n4\ta\t4\n"
        "1\tb\t1\n2\tb\t2\n3\tb\t3\n4\tb\t9\n"
    )
    expected = oracle_followups(g, log)
    for user in (1, 2, 3, 4):
        fset = compute_followup_set(g, log, user)
        assert set(fset.cells) == expected.get(user, set())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_followups_random_instances_match_oracle(seed):
    rng = random.Random(seed)
    graph, log = random_instance(rng)
    expected = oracle_followups(graph, log)
    for user in sorted(graph.users):
        fset = compute_followup_set(graph, log, user)
        assert set(fset.cells) == expected.get(user, set())


def test_global_stats_consistent_with_per_user():
    rng = random.Random(11)
    graph, log = random_instance(rng, users=30, actions=10)
    stats = global_followup_stats(graph, log)
    for user in sorted(graph.users):
        n = len(compute_followup_set(graph, log, user))
        assert stats.influencer_counts.get(user, 0) == n
    # conservation: every cell counted once per influencer, action and follower
    total = sum(stats.influencer_counts.values())
    assert total == sum(stats.action_cells.values()) == sum(stats.follower_cells.values())


def test_global_stats_keeps_arcs():
    g = graph_of(CHAIN_GRAPH + "3\t1\n")
    log = log_of(CHAIN_LOG + "1\tb\t1\n")
    assert global_followup_stats(g, log).arcs == {"a": (1, (2,), 2, (3,))}  # b has no arc


# --- followup sets as runs ------------------------------------------------

@pytest.mark.parametrize(
    "runs",
    [
        [("b", (2,)), ("a", (3,))],  # descending action
        [("a", (2,)), ("a", (3,))],  # repeated action
        [("a", (3, 2))],  # unsorted followers
        [("a", (2, 2))],  # duplicate followers
        [("a", (2,)), ("b", ())],  # empty follower run
    ],
)
def test_from_runs_rejects_unordered_or_repeated_cells(runs):
    with pytest.raises(ValueError):
        FollowupSet.from_runs(1, runs, ["a", "b"])


def test_cells_constructor_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        FollowupSet(1, [Cell("a", 2), Cell("b", 3), Cell("a", 2)], ["a", "b"])


@pytest.mark.parametrize("seed", range(20))
def test_from_runs_equals_cells_constructor(seed):
    rng = random.Random(seed)
    actions = [f"a{i:02d}" for i in range(rng.randint(0, 8))]
    followers = range(2, rng.randint(3, 12))
    cells = [Cell(a, v) for a in actions for v in followers if rng.random() < 0.4]
    runs = []
    for cell in cells:
        if runs and runs[-1][0] == cell.action:
            runs[-1][1].append(cell.follower)
        else:
            runs.append((cell.action, [cell.follower]))
    runs = tuple((a, tuple(vs)) for a, vs in runs)
    by_runs = FollowupSet.from_runs(1, runs, actions)
    by_cells = FollowupSet(1, cells, actions)
    for fset in (by_runs, by_cells):
        assert fset.runs == runs
        assert fset.cells == tuple(cells)
        assert len(fset) == len(cells)
        assert fset.active_followers == tuple(sorted({c.follower for c in cells}))
        assert fset.actions_performed == tuple(actions)


# --- ranking and histogram ------------------------------------------------

def rank(graph, log, top_n):
    return rank_influencers(global_followup_stats(graph, log).influencer_counts, top_n)


def test_rank_chain():
    g = graph_of(CHAIN_GRAPH)
    assert rank(g, log_of(CHAIN_LOG), 2) == [(1, 2), (2, 1)]


def test_rank_empty_when_no_propagation():
    g = graph_of("1\t2")
    assert rank(g, log_of("1\ta\t5"), 10) == []


def test_rank_matches_oracle_counts():
    rng = random.Random(4)
    graph, log = random_instance(rng)
    expected = oracle_followups(graph, log)
    ranked = rank(graph, log, 1000)
    assert dict(ranked) == {u: len(cells) for u, cells in expected.items()}
    # ties break by ascending user id; rerunning gives the identical list
    counts = [c for _, c in ranked]
    assert counts == sorted(counts, reverse=True)
    for (u1, c1), (u2, c2) in zip(ranked, ranked[1:]):
        if c1 == c2:
            assert u1 < u2
    assert ranked == rank(graph, log, 1000)


def test_rank_top_n_validation():
    counts = global_followup_stats(graph_of(CHAIN_GRAPH), log_of(CHAIN_LOG)).influencer_counts
    for top_n in (0, -1):
        with pytest.raises(ConfigError):
            rank_influencers(counts, top_n)


def test_histogram_chain():
    g = graph_of(CHAIN_GRAPH)
    assert followup_histogram(g, log_of(CHAIN_LOG)) == [(1, 1), (2, 1)]


def test_histogram_empty_log():
    assert followup_histogram(graph_of(CHAIN_GRAPH), log_of("")) == []


def test_histogram_consistent_with_ranking():
    rng = random.Random(5)
    graph, log = random_instance(rng)
    ranked = dict(rank(graph, log, 10_000))
    hist = followup_histogram(graph, log)
    assert sum(n for _, n in hist) == len(ranked)
    assert sum(c * n for c, n in hist) == sum(ranked.values())
    assert [c for c, _ in hist] == sorted({c for c in ranked.values()})
