"""Social graph and action log ingestion.

Parses the TSV inputs, builds per-action propagation DAGs, and derives
followup sets: for an influencer u, a cell (action, follower) exists when the
follower performed the action after u, along a time-respecting path of follow
arcs. Followup counts over all users drive influencer ranking and the
followup-frequency histogram.
"""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import ConfigError, NotFoundError, ParseError


class Cell(NamedTuple):
    """One followup of the influencer: `follower` performed `action` after them."""

    action: str
    follower: int


class ActionRecord(NamedTuple):
    user: int
    action: str
    time: int


class SocialGraph:
    """Directed follow graph. An arc u -> v means v follows u, so influence
    flows from u to v."""

    def __init__(self, users: Iterable[int], follower_map: dict[int, tuple[int, ...]]):
        self.users = frozenset(users)
        self._followers = follower_map
        self.n_arcs = sum(len(vs) for vs in follower_map.values())

    @classmethod
    def from_arcs(cls, arcs: Iterable[tuple[int, int]], users: Iterable[int] = ()) -> "SocialGraph":
        """Build a graph from (u, v) arcs, deduplicating and registering endpoints."""
        seen_users = set(users)
        adj: dict[int, set[int]] = {}
        for u, v in arcs:
            if u == v:
                raise ValueError(f"self-arc {u}->{v}")
            seen_users.add(u)
            seen_users.add(v)
            adj.setdefault(u, set()).add(v)
        follower_map = {u: tuple(sorted(vs)) for u, vs in adj.items()}
        return cls(seen_users, follower_map)

    def followers(self, user: int) -> tuple[int, ...]:
        """Users that follow `user`, ascending."""
        return self._followers.get(user, ())


class ActionLog:
    """Deduplicated (user, action, time) records, one per (user, action) pair."""

    def __init__(self, records: Iterable[ActionRecord]):
        by_action: dict[str, list[tuple[int, int]]] = {}
        by_user: dict[int, list[str]] = {}
        for user, action, time in records:
            by_action.setdefault(action, []).append((user, time))
            by_user.setdefault(user, []).append(action)
        self._by_action = {a: tuple(sorted(rs, key=lambda r: (r[1], r[0]))) for a, rs in by_action.items()}
        self._by_user = {u: tuple(sorted(actions)) for u, actions in by_user.items()}
        self.actions = tuple(sorted(self._by_action))

    def __len__(self) -> int:
        return sum(len(rs) for rs in self._by_action.values())

    def performers(self, action: str) -> tuple[tuple[int, int], ...]:
        """(user, time) pairs for `action`, sorted by (time, user)."""
        return self._by_action.get(action, ())

    def actions_of(self, user: int) -> tuple[str, ...]:
        """Action ids performed by `user`, ascending."""
        return self._by_user.get(user, ())


@dataclass(frozen=True)
class PropagationGraph:
    """Time-respecting subgraph of the social graph restricted to one action's
    performers. Arcs only go strictly forward in time, so the graph is a DAG
    and `nodes` (sorted by performance time) is a topological order."""

    action: str
    nodes: tuple[int, ...]
    _successors: dict[int, tuple[int, ...]]

    def successors(self, user: int) -> tuple[int, ...]:
        return self._successors.get(user, ())

    @property
    def n_arcs(self) -> int:
        return sum(len(vs) for vs in self._successors.values())


class FollowupSet:
    """The cells of one influencer's followup set, densely numbered.

    Cell ids are contiguous 0..n-1 in (action, follower) order; the `cells`
    tuple is the id -> cell side table. `actions_performed` keeps every action
    the influencer performed (not just those with followups) so explanation
    annotations can report action counts the way a marketer reads them.
    """

    def __init__(self, influencer: int, cells: Iterable[Cell], actions_performed: Iterable[str]):
        self.influencer = influencer
        self.cells = tuple(cells)
        self.actions_performed = tuple(actions_performed)
        if len(set(self.cells)) != len(self.cells):
            raise ValueError("duplicate cells in followup set")
        self.active_followers = tuple(sorted({c.follower for c in self.cells}))

    def __len__(self) -> int:
        return len(self.cells)


def _split_line(raw: str, lineno: int, n_cols: int) -> list[str]:
    parts = raw.rstrip("\r\n").split("\t")
    if len(parts) != n_cols:
        raise ParseError(f"line {lineno}: expected {n_cols} tab-separated columns, got {len(parts)}")
    return parts


def parse_social_graph(lines: Iterable[str]) -> SocialGraph:
    """Parse `u<TAB>v` arc lines (v follows u). `#` comments and blank lines
    are skipped; duplicate arcs collapse; self-arcs are rejected."""

    def arcs() -> Iterator[tuple[int, int]]:
        for lineno, raw in enumerate(lines, start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = _split_line(raw, lineno, 2)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer user id") from None
            if u == v:
                raise ParseError(f"line {lineno}: self-arc {u}->{v}")
            yield u, v

    return SocialGraph.from_arcs(arcs())


def parse_action_log(lines: Iterable[str]) -> ActionLog:
    """Parse `user<TAB>action<TAB>timestamp` lines. When a (user, action) pair
    repeats, the earliest timestamp wins."""
    earliest: dict[tuple[int, str], int] = {}
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = _split_line(raw, lineno, 3)
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
    return ActionLog(ActionRecord(u, a, t) for (u, a), t in earliest.items())


def build_propagation_graph(
    graph: SocialGraph, log: ActionLog, action: str, max_delay: int | None = None
) -> PropagationGraph:
    """Restrict the social graph to `action`'s performers, keeping an arc
    u -> v only when u performed strictly before v (and within `max_delay`
    time units when given)."""
    performers = log.performers(action)
    if not performers:
        raise NotFoundError(f"action {action!r} does not appear in the log")
    time_of = {u: t for u, t in performers}
    nodes = tuple(u for u, _ in performers)
    successors: dict[int, tuple[int, ...]] = {}
    for u, tu in performers:
        out = []
        for v in graph.followers(u):
            tv = time_of.get(v)
            if tv is None or tv <= tu:
                continue
            if max_delay is not None and tv - tu > max_delay:
                continue
            out.append(v)
        if out:
            successors[u] = tuple(out)
    return PropagationGraph(action, nodes, successors)


def compute_followup_set(
    graph: SocialGraph, log: ActionLog, influencer: int, max_delay: int | None = None
) -> FollowupSet:
    """All cells (action, follower) reachable from `influencer` in each of
    their actions' propagation graphs. A user with no actions yields an
    empty set."""
    performed = log.actions_of(influencer)
    cells: list[Cell] = []
    for action in performed:
        pg = build_propagation_graph(graph, log, action, max_delay)
        seen = {influencer}
        queue = deque([influencer])
        while queue:
            u = queue.popleft()
            for v in pg.successors(u):
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        seen.discard(influencer)
        cells.extend(Cell(action, v) for v in sorted(seen))
    return FollowupSet(influencer, cells, performed)


class FollowupStats(NamedTuple):
    """Aggregates of one pass over every action's propagation DAG."""

    influencer_counts: dict[int, int]
    action_cells: dict[str, int]
    follower_cells: dict[int, int]


def global_followup_stats(
    graph: SocialGraph, log: ActionLog, max_delay: int | None = None
) -> FollowupStats:
    """Count followups for every user at once.

    Per action, nodes are processed in time order carrying a bitset of the
    sources that reach them; each set bit contributes one cell to that
    source's followup set.
    """
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


def rank_influencers(counts: Mapping[int, int], top_n: int) -> list[tuple[int, int]]:
    """The `top_n` (influencer, followups) pairs of `counts` (a
    `FollowupStats.influencer_counts`), by count descending, ties by ascending
    user id. Users with zero followups are absent from `counts`."""
    if top_n < 1:
        raise ConfigError(f"top_n must be >= 1, got {top_n}")
    return sorted(counts.items(), key=lambda it: (-it[1], it[0]))[:top_n]


def followup_histogram(
    graph: SocialGraph, log: ActionLog, max_delay: int | None = None
) -> list[tuple[int, int]]:
    """Frequency table (followup count, number of users), ascending by count,
    over users with at least one followup."""
    counts = global_followup_stats(graph, log, max_delay).influencer_counts
    freq = Counter(counts.values())
    return sorted(freq.items())
