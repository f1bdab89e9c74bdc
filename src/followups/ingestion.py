"""Social graph and action log ingestion.

Parses the TSV inputs, builds per-action propagation DAGs, and derives
followup sets: for an influencer u, a cell (action, follower) exists when the
follower performed the action after u, along a time-respecting path of follow
arcs.

`parse_action_log` checks each line and hands plain (user, action, time)
tuples to `ActionLog`, the one place that keeps the earliest time of a
repeated (user, action) pair.

Two passes over the DAGs serve the pipeline. `global_followup_stats` builds
every action's DAG once and counts every user's followups by popcount of
per-node reach bitsets; the counts drive influencer ranking, binning and
the followup-frequency histogram. `followup_sets` then builds the DAG of
each action in the union of the ranked influencers' actions once, and emits
all their followup sets from it. `compute_followup_set` derives one
influencer's set on its own, by breadth-first search per action; it is the
reference the batch is tested against.
"""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import ConfigError, NotFoundError, ParseError


class Cell(NamedTuple):
    """One followup of the influencer: `follower` performed `action` after them."""

    action: str
    follower: int


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
        adj: dict[int, set[int]] = {}
        for u, v in arcs:
            if u == v:
                raise ValueError(f"self-arc {u}->{v}")
            adj.setdefault(u, set()).add(v)
        return cls.from_adjacency(adj, users)

    @classmethod
    def from_adjacency(cls, adj: dict[int, set[int]], users: Iterable[int] = ()) -> "SocialGraph":
        """Build a graph from each user's set of followers; every user named
        is registered."""
        seen_users = set(users)
        seen_users.update(adj)
        for vs in adj.values():
            seen_users |= vs
        return cls(seen_users, {u: tuple(sorted(vs)) for u, vs in adj.items()})

    def followers(self, user: int) -> tuple[int, ...]:
        """Users that follow `user`, ascending."""
        return self._followers.get(user, ())


class ActionLog:
    """The action log, one row per (user, action) pair.

    Built from (user, action, time) tuples; when a pair repeats, its
    earliest time wins.
    """

    def __init__(self, records: Iterable[tuple[int, str, int]]):
        earliest: dict[str, dict[int, int]] = {}
        for user, action, time in records:
            times = earliest.get(action)
            if times is None:
                earliest[action] = {user: time}
            elif time < times.get(user, time + 1):
                times[user] = time
        self.actions = tuple(sorted(earliest))
        by_time = itemgetter(1, 0)
        self._by_action = {a: tuple(sorted(earliest[a].items(), key=by_time)) for a in self.actions}
        by_user: dict[int, list[str]] = {}
        for action in self.actions:
            for user in earliest[action]:
                by_user.setdefault(user, []).append(action)
        self._by_user = {u: tuple(actions) for u, actions in by_user.items()}

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

    def out_arcs(self) -> Iterable[tuple[int, tuple[int, ...]]]:
        """(u, successors of u) for each node with an out-arc, in `nodes` order."""
        return self._successors.items()

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
    adj: dict[int, set[int]] = {}
    for lineno, raw in enumerate(lines, start=1):
        # Fast path for a well-formed arc, as in `_log_rows`: whatever this
        # accepts `_checked_arc` accepts with the same values.
        parts = raw.split("\t")
        if len(parts) == 2:
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                pass
            else:
                if u != v:
                    followers = adj.get(u)
                    if followers is None:
                        adj[u] = {v}
                    else:
                        followers.add(v)
                    continue
        arc = _checked_arc(raw, lineno)
        if arc is not None:
            adj.setdefault(arc[0], set()).add(arc[1])
    return SocialGraph.from_adjacency(adj)


def _checked_arc(raw: str, lineno: int) -> tuple[int, int] | None:
    """One graph line checked field by field: its arc, None for a blank or
    comment line, or a ParseError naming the line."""
    stripped = raw.strip()
    if not stripped or stripped.startswith("#"):
        return None
    parts = _split_line(raw, lineno, 2)
    try:
        u, v = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"line {lineno}: non-integer user id") from None
    if u == v:
        raise ParseError(f"line {lineno}: self-arc {u}->{v}")
    return u, v


def parse_action_log(lines: Iterable[str]) -> ActionLog:
    """Parse `user<TAB>action<TAB>timestamp` lines. When a (user, action) pair
    repeats, the earliest timestamp wins."""
    return ActionLog(_log_rows(lines))


def _log_rows(lines: Iterable[str]) -> Iterator[tuple[int, str, int]]:
    for lineno, raw in enumerate(lines, start=1):
        # Fast path for a well-formed row. `int` ignores the line ending, and
        # a blank or `#` line never has an integer first field, so whatever
        # this accepts `_checked_log_row` accepts with the same values.
        parts = raw.split("\t")
        if len(parts) == 3:
            user, action, time = parts
            try:
                user, time = int(user), int(time)
            except ValueError:
                pass
            else:
                action = action.strip()
                if action and time >= 0:
                    yield user, action, time
                    continue
        row = _checked_log_row(raw, lineno)
        if row is not None:
            yield row


def _checked_log_row(raw: str, lineno: int) -> tuple[int, str, int] | None:
    """One action-log line checked field by field: its row, None for a blank
    or comment line, or a ParseError naming the line."""
    stripped = raw.strip()
    if not stripped or stripped.startswith("#"):
        return None
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
    return user, action, time


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

    Per action, one walk in time order gives each node the bitset of the
    sources that reach it, and its popcount is that follower's cells. One
    walk in reverse gives each source the bitset of the nodes it reaches,
    and its popcount is that influencer's cells. Only nodes on an arc hold
    a bitset. Users and actions without cells are absent from the dicts.
    """
    influencer_counts: dict[int, int] = {}
    action_cells: dict[str, int] = {}
    follower_cells: dict[int, int] = {}
    for action in log.actions:
        pg = build_propagation_graph(graph, log, action, max_delay)
        arcs = list(pg.out_arcs())
        if not arcs:
            continue
        up: dict[int, int] = {}  # node -> the sources that reach it
        for bit, (u, vs) in enumerate(arcs):
            push = up.get(u, 0) | 1 << bit
            for v in vs:
                up[v] = up.get(v, 0) | push
        total = 0
        for v, sources in up.items():
            n = sources.bit_count()
            follower_cells[v] = follower_cells.get(v, 0) + n
            total += n
        action_cells[action] = total
        # Node -> itself and the nodes it reaches. Every arc target gets its
        # own bit first; a later source adds what it reaches before any
        # earlier node reads it.
        down = {v: 1 << i for i, v in enumerate(up)}
        for u, vs in reversed(arcs):
            reached = 0
            for v in vs:
                reached |= down[v]
            influencer_counts[u] = influencer_counts.get(u, 0) + reached.bit_count()
            if u in down:
                down[u] |= reached
    return FollowupStats(influencer_counts, action_cells, follower_cells)


def followup_sets(
    graph: SocialGraph, log: ActionLog, influencers: Sequence[int], max_delay: int | None = None
) -> Iterator[FollowupSet]:
    """The followup set of each of `influencers` (distinct user ids), in input
    order, equal to `compute_followup_set` on each of them.

    One pass walks the sorted union of their actions and builds each
    action's DAG once. As in `global_followup_stats`, nodes are processed in
    time order carrying a bitset of the sources that reach them, but only
    the listed influencers are sources. Each node's bits are decoded in
    ascending follower id. The pass runs at the first `next()` and keeps
    only each influencer's followers per action; those are dropped as the
    influencer's set is yielded.
    """
    order = list(influencers)
    listed = set(order)
    if len(listed) != len(order):
        raise ValueError("duplicate influencer")
    # Per influencer, one flat list: each action with followups (a str),
    # then its followers (ints). One slot per action and per cell.
    runs: dict[int, list[str | int]] = {u: [] for u in order}
    for action in sorted({a for u in order for a in log.actions_of(u)}):
        pg = build_propagation_graph(graph, log, action, max_delay)
        for u, followers in _listed_reach(pg, listed):
            runs[u].append(action)
            runs[u] += followers
    for u in order:
        yield FollowupSet(u, _decode_runs(runs.pop(u)), log.actions_of(u))


def _listed_reach(pg: PropagationGraph, listed: set[int]) -> list[tuple[int, list[int]]]:
    """(source, its followers ascending) for each performer of `pg` that is
    in `listed` and reaches anyone."""
    sources = [u for u in pg.nodes if u in listed]
    bit = {u: 1 << j for j, u in enumerate(sources)}
    index = {u: i for i, u in enumerate(pg.nodes)}
    reach = [0] * len(pg.nodes)
    for i, u in enumerate(pg.nodes):
        push = reach[i] | bit.get(u, 0)
        if push:
            for v in pg.successors(u):
                reach[index[v]] |= push
    followers: list[list[int]] = [[] for _ in sources]
    for v, bits in sorted((v, bits) for v, bits in zip(pg.nodes, reach) if bits):
        while bits:
            low = bits & -bits
            followers[low.bit_length() - 1].append(v)
            bits ^= low
    return [(u, vs) for u, vs in zip(sources, followers) if vs]


def _decode_runs(run: list[str | int]) -> Iterator[Cell]:
    for item in run:
        if isinstance(item, str):
            action = item
        else:
            yield Cell(action, item)


def require_top_n(top_n: int) -> None:
    """Reject a top-N size below 1 with a ConfigError."""
    if top_n < 1:
        raise ConfigError(f"top_n must be >= 1, got {top_n}")


def require_max_delay(max_delay: int | None) -> None:
    """Reject a max delay below 1 with a ConfigError: DAG arcs join strictly
    later performances, so such a delay would drop every arc."""
    if max_delay is not None and max_delay < 1:
        raise ConfigError(f"max_delay must be >= 1, got {max_delay}")


def rank_influencers(counts: Mapping[int, int], top_n: int) -> list[tuple[int, int]]:
    """The `top_n` (influencer, followups) pairs of `counts` (a
    `FollowupStats.influencer_counts`), by count descending, ties by ascending
    user id. Users with zero followups are absent from `counts`."""
    require_top_n(top_n)
    return sorted(counts.items(), key=lambda it: (-it[1], it[0]))[:top_n]


def followup_histogram(
    graph: SocialGraph, log: ActionLog, max_delay: int | None = None
) -> list[tuple[int, int]]:
    """Frequency table (followup count, number of users), ascending by count,
    over users with at least one followup."""
    counts = global_followup_stats(graph, log, max_delay).influencer_counts
    freq = Counter(counts.values())
    return sorted(freq.items())
