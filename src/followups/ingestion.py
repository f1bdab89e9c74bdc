"""Social graph and action log ingestion.

Parses the TSV inputs, builds per-action propagation DAGs, and derives
followup sets: for an influencer u, a cell (action, follower) exists when the
follower performed the action after u, along a time-respecting path of follow
arcs.

`parse_action_log` checks each line and hands plain (user, action, time)
tuples to `ActionLog`, the one place that keeps the earliest time of a
repeated (user, action) pair. It indexes its rows by action alone, since
every DAG and every followup set is built one action at a time. Each
action's rows are two `array('q')` columns, users and times, in (time,
user) order: about 20 bytes a row, where a tuple of two ints took over
100. Rows are appended to the columns as they are read. An action whose
rows arrive strictly ascending in (time, user) keeps its columns as read,
as every generated log's actions do; any other is sorted once. An action
with a value outside the signed 64-bit range keeps lists of ints instead.

An action's propagation DAG has one form: the flat tuple of its out-arcs,
`(u, successors of u, u, successors of u, ...)` over its arc sources in
time order, as `build_propagation_graph` returns it.

Two passes over the DAGs serve the pipeline. `global_followup_stats` builds
every action's DAG once and counts every user's followups by popcount of
per-node reach bitsets; the counts drive influencer ranking and binning.
It also keeps each DAG, and `followup_sets` emits all the ranked
influencers' followup sets from those kept arcs, so a run builds each DAG
once. `rank` and the followup-frequency histogram read only the
influencer counts, so they call `influencer_followup_counts`, which walks
each DAG in reverse time order alone. A followup set holds its cells as
runs: one (action, ascending followers) pair per action, in ascending
action order. `compute_followup_set` derives one influencer's set on its
own, by breadth-first search per action; it is the reference the batch is
tested against.
"""
from __future__ import annotations

from array import array
from collections import Counter, deque
from itertools import chain, groupby
from operator import itemgetter, lt
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import ConfigError, NotFoundError, ParseError


class Cell(NamedTuple):
    """One followup of the influencer: `follower` performed `action` after them."""

    action: str
    follower: int


class SocialGraph:
    """Directed follow graph. An arc u -> v means v follows u, so influence
    flows from u to v.

    Built from `adj`, each user's set of followers. Every user named there
    or in `users` is registered."""

    def __init__(self, adj: Mapping[int, set[int]], users: Iterable[int] = ()):
        seen_users = set(users)
        seen_users.update(adj)
        for vs in adj.values():
            seen_users |= vs
        self.users = frozenset(seen_users)
        self._followers = {u: tuple(sorted(vs)) for u, vs in adj.items()}
        self.n_arcs = sum(len(vs) for vs in self._followers.values())

    @classmethod
    def from_arcs(cls, arcs: Iterable[tuple[int, int]], users: Iterable[int] = ()) -> "SocialGraph":
        """Build a graph from (u, v) arcs, deduplicating and registering endpoints."""
        adj: dict[int, set[int]] = {}
        for u, v in arcs:
            if u == v:
                raise ValueError(f"self-arc {u}->{v}")
            adj.setdefault(u, set()).add(v)
        return cls(adj, users)

    def followers(self, user: int) -> tuple[int, ...]:
        """Users that follow `user`, ascending."""
        return self._followers.get(user, ())


class ActionLog:
    """The action log, one row per (user, action) pair.

    Built from (user, action, time) tuples; when a pair repeats, its
    earliest time wins. Rows are indexed by action only: each action holds
    two columns, its users and their times, in (time, user) order. The
    columns are `array('q')`s, 8 bytes a value, and the rows are appended to
    them as they are read. An action whose rows arrive strictly ascending in
    (time, user), each user once, keeps its columns as read; any other is
    sorted once and keeps each user's earliest row. An action with a value
    outside the signed 64-bit range keeps lists instead.
    """

    def __init__(self, records: Iterable[tuple[int, str, int]]):
        columns: dict[str, tuple] = {}
        for user, action, time in records:
            users_times = columns.get(action)
            if users_times is None:
                users_times = columns[action] = (array("q"), array("q"))
            try:
                users_times[0].append(user)
                users_times[1].append(time)
            except OverflowError:
                users, times = users_times
                columns[action] = ([*users[: len(times)], user], [*times, time])
        self.actions = tuple(sorted(columns))
        self._columns = {a: _earliest_rows(*columns.pop(a)) for a in self.actions}

    def __len__(self) -> int:
        return sum(len(users) for users, _ in self._columns.values())

    def columns(self, action: str) -> tuple[Sequence[int], Sequence[int]]:
        """The users and times of `action`, in (time, user) order; two empty
        columns for an action not in the log."""
        return self._columns.get(action, ((), ()))

    def performers(self, action: str) -> tuple[tuple[int, int], ...]:
        """(user, time) pairs for `action`, sorted by (time, user)."""
        return tuple(zip(*self.columns(action)))

    def actions_of(self, user: int) -> tuple[str, ...]:
        """Action ids performed by `user`, ascending, by a scan of the log."""
        return tuple(a for a, (users, _) in self._columns.items() if user in users)


def _earliest_rows(users: Sequence[int], times: Sequence[int]) -> tuple[Sequence[int], Sequence[int]]:
    """One action's columns in (time, user) order with each user once, at
    their earliest time. Columns already in that order are returned as
    they are."""
    if len(set(users)) == len(users) and all(map(lt, zip(times, users), zip(times[1:], users[1:]))):
        return users, times
    seen: set[int] = set()
    rows = [(t, u) for t, u in sorted(zip(times, users)) if u not in seen and not seen.add(u)]
    sorted_times, sorted_users = zip(*rows)
    return _column(sorted_users), _column(sorted_times)


def _column(values: Sequence[int]) -> Sequence[int]:
    """`values` as an `array('q')`, or as a list when one of them is outside
    the signed 64-bit range."""
    try:
        return array("q", values)
    except OverflowError:
        return list(values)


class FollowupSet:
    """The cells of one influencer's followup set, densely numbered.

    `runs` holds the cells as (action, followers) pairs in cell order, each
    pair the cells of one action; cell ids are contiguous 0..n-1 in that
    order. `cells` derives the id -> cell side table from them.
    `actions_performed` keeps every action the influencer performed (not
    just those with followups) so explanation annotations can report action
    counts the way a marketer reads them.

    `FollowupSet(influencer, cells, actions_performed)` takes the cells in
    any order without duplicates, and groups consecutive cells of one action
    into a run. `from_runs` takes the runs themselves.
    """

    def __init__(self, influencer: int, cells: Iterable[Cell], actions_performed: Iterable[str]):
        cells = tuple(cells)
        if len(set(cells)) != len(cells):
            raise ValueError("duplicate cells in followup set")
        follower = itemgetter(1)
        runs = tuple((action, tuple(map(follower, group))) for action, group in groupby(cells, itemgetter(0)))
        self._fill(influencer, runs, actions_performed)

    @classmethod
    def from_runs(
        cls, influencer: int, runs: Iterable[tuple[str, Sequence[int]]], actions_performed: Iterable[str]
    ) -> "FollowupSet":
        """The set whose cells are `runs`: (action, followers) pairs with the
        actions strictly ascending, and each run's followers non-empty and
        strictly ascending, so that no cell repeats."""
        runs = tuple(runs)
        actions = [action for action, _ in runs]
        if not all(map(lt, actions, actions[1:])):
            raise ValueError("followup set runs must have strictly ascending actions")
        for action, followers in runs:
            if not followers or not all(map(lt, followers, followers[1:])):
                raise ValueError(f"followers of action {action!r} must be non-empty and strictly ascending")
        fset = cls.__new__(cls)
        fset._fill(influencer, runs, actions_performed)
        return fset

    def _fill(self, influencer: int, runs: tuple, actions_performed: Iterable[str]) -> None:
        self.influencer = influencer
        self.runs = runs
        self.actions_performed = tuple(actions_performed)
        follower_runs = [followers for _, followers in runs]
        self._n_cells = sum(map(len, follower_runs))
        self.active_followers = tuple(sorted(set(chain.from_iterable(follower_runs))))

    @property
    def cells(self) -> tuple[Cell, ...]:
        """Every cell, in id order."""
        return tuple(Cell(action, v) for action, followers in self.runs for v in followers)

    def __len__(self) -> int:
        return self._n_cells


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
    return SocialGraph(adj)


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
) -> tuple:
    """The DAG of `action`: the social graph restricted to its performers,
    keeping an arc u -> v only when u performed strictly before v (and
    within `max_delay` time units when given).

    Returned as its flat out-arcs `(u, successors of u, ...)`: each source
    with an arc once, in the performers' (time, user) order, which is a
    topological order, and its successors in ascending id. Empty when the
    action has no arc."""
    users, times = log.columns(action)
    if not users:
        raise NotFoundError(f"action {action!r} does not appear in the log")
    time_of = dict(zip(users, times))
    followers = graph._followers.get  # `graph.followers`, without a method call per performer
    arcs = []
    for u, tu in zip(users, times):
        out = []
        for v in followers(u, ()):
            # Most followers did not perform the action: test that first.
            if v in time_of:
                tv = time_of[v]
                if tv > tu and (max_delay is None or tv - tu <= max_delay):
                    out.append(v)
        if out:
            arcs += (u, tuple(out))
    return tuple(arcs)


def compute_followup_set(
    graph: SocialGraph, log: ActionLog, influencer: int, max_delay: int | None = None
) -> FollowupSet:
    """All cells (action, follower) reachable from `influencer` in each of
    their actions' propagation graphs, as one run per action with a cell. A
    user with no actions yields an empty set."""
    performed = log.actions_of(influencer)
    runs = []
    for action in performed:
        it = iter(build_propagation_graph(graph, log, action, max_delay))
        successors = dict(zip(it, it))
        seen = {influencer}
        queue = deque([influencer])
        while queue:
            u = queue.popleft()
            for v in successors.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        seen.discard(influencer)
        if seen:
            runs.append((action, tuple(sorted(seen))))
    return FollowupSet.from_runs(influencer, runs, performed)


class FollowupStats(NamedTuple):
    """Aggregates of one pass over every action's propagation DAG; `arcs`
    maps each action with an arc to its DAG as `build_propagation_graph`
    returned it."""

    influencer_counts: dict[int, int]
    action_cells: dict[str, int]
    follower_cells: dict[int, int]
    arcs: dict[str, tuple]


def global_followup_stats(graph: SocialGraph, log: ActionLog, max_delay: int | None = None) -> FollowupStats:
    """Count followups for every user at once.

    Per action, one walk in time order gives each node the bitset of the
    sources that reach it, and its popcount is that follower's cells. The
    walk in reverse, `_reach_counts`, gives each influencer its cells and
    the action its total. Only nodes on an arc hold a bitset. Users and
    actions without cells are absent from the dicts. `influencer_counts`
    equals `influencer_followup_counts(graph, log, max_delay)`.

    The result's `arcs` holds every DAG with an arc, for `followup_sets`
    to build the top influencers' sets from without building any DAG again.
    """
    influencer_counts: dict[int, int] = {}
    action_cells: dict[str, int] = {}
    follower_cells: dict[int, int] = {}
    kept: dict[str, tuple] = {}
    for action in log.actions:
        arcs = build_propagation_graph(graph, log, action, max_delay)
        if not arcs:
            continue
        kept[action] = arcs
        up: dict[int, int] = {}  # node -> the sources that reach it
        for bit, (u, vs) in enumerate(zip(arcs[::2], arcs[1::2])):
            push = up.get(u, 0) | 1 << bit
            for v in vs:
                up[v] = up.get(v, 0) | push
        for v, sources in up.items():
            follower_cells[v] = follower_cells.get(v, 0) + sources.bit_count()
        action_cells[action] = _reach_counts(arcs, influencer_counts)
    return FollowupStats(influencer_counts, action_cells, follower_cells, kept)


def influencer_followup_counts(
    graph: SocialGraph, log: ActionLog, max_delay: int | None = None
) -> dict[int, int]:
    """Every user's followup count, the `influencer_counts` of
    `global_followup_stats`, from the reverse walk alone: each action's DAG
    is built once and no follower counts are made. Users without followups
    are absent."""
    counts: dict[int, int] = {}
    for action in log.actions:
        arcs = build_propagation_graph(graph, log, action, max_delay)
        if arcs:
            _reach_counts(arcs, counts)
    return counts


def _reach_counts(arcs: tuple, counts: dict[int, int]) -> int:
    """Add to `counts` how many nodes each arc source of `arcs` (one
    action's flat out-arcs, in time order) reaches; return the sum, the
    action's cells.

    Walks the sources in reverse time order, so every node a source reaches
    has its reach bitset before the source reads it. A node gets its own
    bit the first time the walk sees it. No source walked before `u` has
    `u` as a target, since each performed no earlier than `u`."""
    down: dict[int, int] = {}  # node -> itself and the nodes it reaches
    cells = 0
    for u, vs in zip(arcs[-2::-2], arcs[::-2]):
        reached = 0
        for v in vs:
            bits = down.get(v)
            if bits is None:
                bits = down[v] = 1 << len(down)
            reached |= bits
        n = reached.bit_count()
        counts[u] = counts.get(u, 0) + n
        cells += n
        down[u] = 1 << len(down) | reached
    return cells


def followup_sets(log: ActionLog, influencers: Sequence[int], arcs: dict[str, tuple]) -> Iterator[FollowupSet]:
    """The followup set of each of `influencers` (distinct user ids), in input
    order, equal to `compute_followup_set` on each of them.

    `arcs` is the `arcs` of `global_followup_stats(graph, log, max_delay)`,
    and the pass consumes it: it drops each action's entry as it reads it,
    and empties the dict when done. One pass walks `log.actions` in
    ascending order and records each action for the listed influencers
    among its performers; it reads an action's kept arcs only when one of
    them performed it. As in `global_followup_stats`, arc sources are
    processed in time order, pushing a bitset of the sources that reach
    them, but only the listed influencers are sources. Each node's bits are
    decoded in ascending follower id. The pass runs at the first `next()`,
    and each influencer's runs are dropped as their set is yielded.
    """
    order = list(influencers)
    listed = set(order)
    if len(listed) != len(order):
        raise ValueError("duplicate influencer")
    performed: dict[int, list[str]] = {u: [] for u in order}
    runs: dict[int, list[tuple[str, tuple[int, ...]]]] = {u: [] for u in order}
    for action in log.actions:
        doers = listed.intersection(log.columns(action)[0])
        for u in doers:
            performed[u].append(action)
        if doers and action in arcs:
            for u, followers in _listed_reach(arcs.pop(action), listed):
                runs[u].append((action, followers))
    arcs.clear()  # the rest are arcs of actions no listed influencer performed
    for u in order:
        yield FollowupSet.from_runs(u, runs.pop(u), performed.pop(u))


def _listed_reach(arcs: tuple, listed: set[int]) -> list[tuple[int, tuple[int, ...]]]:
    """(source, its followers ascending) for each arc source in `arcs` (one
    action's flat out-arcs, in time order) that is in `listed`."""
    sources: list[int] = []
    up: dict[int, int] = {}  # node -> the listed sources that reach it
    pairs = iter(arcs)
    for u, vs in zip(pairs, pairs):
        push = up.get(u, 0)
        if u in listed:
            push |= 1 << len(sources)
            sources.append(u)
        if push:
            for v in vs:
                up[v] = up.get(v, 0) | push
    followers: list[list[int]] = [[] for _ in sources]
    for v in sorted(up):
        bits = up[v]
        while bits:
            low = bits & -bits
            followers[low.bit_length() - 1].append(v)
            bits ^= low
    return [(u, tuple(vs)) for u, vs in zip(sources, followers)]


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
    counts = influencer_followup_counts(graph, log, max_delay)
    freq = Counter(counts.values())
    return sorted(freq.items())
