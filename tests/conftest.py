"""Shared helpers: hand-buildable indexes, seeded random instances, and the
simple oracles the optimised layers are checked against: the per-line graph
parser, the per-row action log parser, the per-cell propagation pass, the
per-cell index build and `annotate`, and the per-value sweep."""
from __future__ import annotations

import random
from collections import Counter

import pytest

from followups import harness
from followups.errors import ParseError
from followups.featurization import (
    ACTION,
    TARGET_FOLLOWER,
    USER,
    AttributeTable,
    PredicateIndex,
    build_predicate_index,
)
from followups.ingestion import Cell, FollowupSet, FollowupStats, SocialGraph, build_propagation_graph


class ReferenceLog:
    """The action log kept as one record per (user, action) pair, each
    action's performers sorted by (time, user) and each user's actions
    sorted."""

    def __init__(self, earliest: dict[tuple[int, str], int]):
        by_action: dict[str, list[tuple[int, int]]] = {}
        by_user: dict[int, list[str]] = {}
        for (user, action), time in earliest.items():
            by_action.setdefault(action, []).append((user, time))
            by_user.setdefault(user, []).append(action)
        self._by_action = {a: tuple(sorted(rs, key=lambda r: (r[1], r[0]))) for a, rs in by_action.items()}
        self._by_user = {u: tuple(sorted(actions)) for u, actions in by_user.items()}
        self.actions = tuple(sorted(self._by_action))

    def __len__(self) -> int:
        return sum(len(rs) for rs in self._by_action.values())

    def performers(self, action: str) -> tuple[tuple[int, int], ...]:
        return self._by_action.get(action, ())

    def actions_of(self, user: int) -> tuple[str, ...]:
        return self._by_user.get(user, ())


def reference_parse_social_graph(lines) -> SocialGraph:
    """The per-line graph parser: each line checked field by field, the arcs
    handed to `SocialGraph.from_arcs`."""
    arcs = []
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = raw.rstrip("\r\n").split("\t")
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 2 tab-separated columns, got {len(parts)}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer user id") from None
        if u == v:
            raise ParseError(f"line {lineno}: self-arc {u}->{v}")
        arcs.append((u, v))
    return SocialGraph.from_arcs(arcs)


def reference_parse_action_log(lines) -> ReferenceLog:
    """The per-row action log parser: each line checked field by field, the
    earliest time of each (user, action) pair kept in one dict."""
    earliest: dict[tuple[int, str], int] = {}
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = raw.rstrip("\r\n").split("\t")
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 3 tab-separated columns, got {len(parts)}")
        try:
            user = int(parts[0])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer user id") from None
        action = parts[1].strip()
        if not action:
            raise ParseError(f"line {lineno}: empty action id")
        try:
            time = int(parts[2])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer timestamp") from None
        if time < 0:
            raise ParseError(f"line {lineno}: negative timestamp")
        key = (user, action)
        if key not in earliest or time < earliest[key]:
            earliest[key] = time
    return ReferenceLog(earliest)


def reference_followup_stats(graph, log, max_delay=None) -> FollowupStats:
    """The per-cell propagation pass: per action, nodes in time order carry
    the bitset of the sources that reach them, and every set bit is decoded
    into one cell of its source."""
    influencer_counts: dict[int, int] = Counter()
    action_cells: dict[str, int] = Counter()
    follower_cells: dict[int, int] = Counter()
    for action in log.actions:
        pg = build_propagation_graph(graph, log, action, max_delay)
        index = {u: i for i, u in enumerate(pg.nodes)}
        reach = [0] * len(pg.nodes)
        for u in pg.nodes:
            i = index[u]
            push = reach[i] | (1 << i)
            for v in pg.successors(u):
                reach[index[v]] |= push
        for v in pg.nodes:
            sources = reach[index[v]]
            if not sources:
                continue
            n = sources.bit_count()
            follower_cells[v] += n
            action_cells[action] += n
            while sources:
                low = sources & -sources
                influencer_counts[pg.nodes[low.bit_length() - 1]] += 1
                sources ^= low
    return FollowupStats(dict(influencer_counts), dict(action_cells), dict(follower_cells))


def reference_sweep(config, axis, values, algos) -> harness.SweepResult:
    """The per-value sweep: one mining call per (value, algorithm,
    influencer), in that order."""
    config.validate()
    top = list(harness._top_indexes(config)[1])
    indexes = [index for _, _, index in top]
    harness._require_indexes(indexes)
    result = harness.SweepResult(axis=axis, influencers=[user for user, _, _ in top])
    for value in values:
        k = value if axis == "k" else config.k
        l = value if axis == "l" else config.l
        point = harness.SweepPoint(value=value, coverages={}, medians={}, millis={})
        for algo in algos:
            covs, point.millis[algo] = harness._time_algorithm(config, algo, indexes, k, l)
            point.coverages[algo] = covs
            point.medians[algo] = harness.median(covs)
        result.points.append(point)
    return result


def postings_of(index: PredicateIndex) -> tuple[tuple[int, ...], ...]:
    """Ascending cell ids of every predicate, decoded from `index.bits`."""
    return tuple(
        tuple(c for c in range(index.n_cells) if bits >> c & 1) for bits in index.bits
    )


def entity_keys(table: AttributeTable, entity, bins) -> list[tuple[str, str, str]]:
    """Predicate keys an entity satisfies, read straight from its table."""
    keys = []
    for attribute in table.attributes_of(entity):
        if attribute in table.numeric:
            value = table.numeric_value(entity, attribute)
            keys.append((table.dimension, attribute, bins[attribute].label_of(value)))
        else:
            keys += [(table.dimension, attribute, v) for v in table.values(entity, attribute)]
    return keys


def reference_predicate_index(fset, user_attrs, action_attrs, bins=(), target=TARGET_FOLLOWER):
    """The per-cell index build: every cell's keys from the attribute tables,
    then the sorted catalog and each predicate's ascending posting tuple."""
    binmap = {spec.attribute: spec for spec in bins}
    cell_keys = []
    for cell in fset.cells:
        user = cell.follower if target == TARGET_FOLLOWER else fset.influencer
        cell_keys.append(
            set(entity_keys(action_attrs, cell.action, binmap)) | set(entity_keys(user_attrs, user, binmap))
        )
    catalog = sorted(set().union(*cell_keys))
    postings = tuple(
        tuple(c for c, keys in enumerate(cell_keys) if key in keys) for key in catalog
    )
    return catalog, postings


def scan_annotation(expl, index) -> tuple[int, int, int]:
    """`annotate` by scanning the attribute tables entity by entity."""
    fset = index.followup_set
    preds = [index.predicates[p] for p in expl.predicates]

    def sat(table, entity, dimension):
        keys = entity_keys(table, entity, index.bins)
        return all((p.dimension, p.attribute, p.value) in keys for p in preds if p.dimension == dimension)

    actions = sum(1 for a in fset.actions_performed if sat(index.action_attrs, a, ACTION))
    if index.target == TARGET_FOLLOWER:
        followers = sum(1 for v in fset.active_followers if sat(index.user_attrs, v, USER))
    else:
        followers = len(fset.active_followers) if sat(index.user_attrs, fset.influencer, USER) else 0
    return actions, followers, expl.raw_coverage


def index_from_postings(postings: list[list[int]], n_cells: int | None = None) -> PredicateIndex:
    """Index whose predicate i has exactly the given posting list.

    Cells become actions c000.. of one influencer with a single follower;
    predicate i is the action attribute p{i:03d}=1, so predicate ids follow
    the input order.
    """
    if n_cells is None:
        n_cells = max((c for pl in postings for c in pl), default=-1) + 1
    actions = [f"c{c:03d}" for c in range(n_cells)]
    fset = FollowupSet(1, (Cell(a, 2) for a in actions), actions)
    action_attrs = AttributeTable(ACTION)
    for i, posting in enumerate(postings):
        if not posting:
            raise ValueError("empty posting lists never enter a catalog; drop them")
        for c in posting:
            action_attrs.add(actions[c], f"p{i:03d}", "1")
    return build_predicate_index(fset, AttributeTable(USER), action_attrs)


def random_attribute_instance(rng: random.Random, max_cells: int = 300, max_predicates: int = 40):
    """A random followup set plus attribute tables sized to stay under the
    given cell/predicate budgets."""
    n_followers = rng.randint(2, 14)
    n_actions = rng.randint(2, 18)
    followers = list(range(2, 2 + n_followers))
    actions = [f"a{i:02d}" for i in range(n_actions)]
    density = rng.uniform(0.2, 0.9)
    cells = [
        Cell(a, v)
        for a in actions
        for v in followers
        if rng.random() < density
    ]
    cells = cells[:max_cells]
    if not cells:
        cells = [Cell(actions[0], followers[0])]
    fset = FollowupSet(1, cells, actions)

    user_attrs = AttributeTable(USER)
    action_attrs = AttributeTable(ACTION)
    budget = max_predicates
    n_user_attrs = rng.randint(1, 3)
    n_action_attrs = rng.randint(1, 3)
    for i in range(n_user_attrs):
        card = rng.randint(2, 4)
        budget -= card
        for v in followers:
            if rng.random() < 0.9:
                user_attrs.add(v, f"u{i}", f"v{rng.randint(0, card - 1)}")
    for i in range(n_action_attrs):
        card = max(2, min(rng.randint(2, 6), budget // max(1, n_action_attrs - i)))
        budget -= card
        multi = rng.random() < 0.3
        for a in actions:
            if rng.random() < 0.9:
                action_attrs.add(a, f"g{i}", f"v{rng.randint(0, card - 1)}")
                if multi and rng.random() < 0.4:
                    action_attrs.add(a, f"g{i}", f"v{rng.randint(0, card - 1)}")
    index = build_predicate_index(fset, user_attrs, action_attrs)
    return index


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)
