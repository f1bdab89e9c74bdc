"""Shared helpers: hand-buildable indexes, seeded random instances, and the
simple oracles the optimised layers are checked against: the per-line graph
parser, the per-row action log parser, the per-line attribute table loader,
the per-cell propagation pass, the quadratic minimax binning DP, the
per-cell and byte-buffer index builds and `annotate`, the explanation
document built as a dict, the per-draw weighted sampling scan, the
per-value sweep, and the pipeline composed of those oracles alone."""
from __future__ import annotations

import json
import random
import time
from collections import Counter

import pytest

from followups import harness
from followups.errors import ParseError
from followups.featurization import (
    ACTION,
    TARGET_FOLLOWER,
    USER,
    AttributeTable,
    BinSpec,
    PredicateCatalog,
    PredicateIndex,
    _entity_classes,
    build_predicate_index,
    default_bin_labels,
)
from followups.ingestion import (
    Cell,
    FollowupSet,
    FollowupStats,
    SocialGraph,
    build_propagation_graph,
    compute_followup_set,
)
from followups.miner import ExplanationSet, annotate, eager_greedy


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
        self._performed = {u: tuple(sorted(actions)) for u, actions in by_user.items()}
        self.actions = tuple(sorted(self._by_action))

    def __len__(self) -> int:
        return sum(len(rs) for rs in self._by_action.values())

    def columns(self, action: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
        rows = self._by_action.get(action)
        return tuple(zip(*rows)) if rows else ((), ())

    def performers(self, action: str) -> tuple[tuple[int, int], ...]:
        return self._by_action.get(action, ())

    def actions_of(self, user: int) -> tuple[str, ...]:
        return self._performed.get(user, ())


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


def reference_load_attribute_table(lines, dimension) -> AttributeTable:
    """The per-line attribute table loader: each line checked field by field."""
    table = AttributeTable(dimension)
    numeric: set[str] = set()
    saw_data = False
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            if body.startswith("numeric:"):
                if saw_data:
                    raise ParseError(f"line {lineno}: #numeric: header must precede data rows")
                numeric.update(a.strip() for a in body[len("numeric:"):].split(",") if a.strip())
                table.numeric = frozenset(numeric)
            continue
        parts = raw.rstrip("\r\n").split("\t")
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 3 tab-separated columns, got {len(parts)}")
        entity_raw, attribute, value = parts[0].strip(), parts[1].strip(), parts[2].strip()
        if not entity_raw or not attribute:
            raise ParseError(f"line {lineno}: empty entity or attribute")
        entity = entity_raw
        if dimension == USER:
            try:
                entity = int(entity_raw)
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer user id {entity_raw!r}") from None
        saw_data = True
        try:
            table.add(entity, attribute, value)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return table


def reference_followup_stats(graph, log, max_delay=None) -> FollowupStats:
    """The per-cell propagation pass: per action, nodes in time order carry
    the bitset of the sources that reach them, and every set bit is decoded
    into one cell of its source. Each DAG with an arc is kept as built."""
    influencer_counts: dict[int, int] = Counter()
    action_cells: dict[str, int] = Counter()
    follower_cells: dict[int, int] = Counter()
    dags: dict[str, tuple] = {}
    for action in log.actions:
        nodes = [u for u, _ in log.performers(action)]
        dag = build_propagation_graph(graph, log, action, max_delay)
        if dag:
            dags[action] = dag
        it = iter(dag)
        successors = dict(zip(it, it))
        index = {u: i for i, u in enumerate(nodes)}
        reach = [0] * len(nodes)
        for u in nodes:
            i = index[u]
            push = reach[i] | (1 << i)
            for v in successors.get(u, ()):
                reach[index[v]] |= push
        for v in nodes:
            sources = reach[index[v]]
            if not sources:
                continue
            n = sources.bit_count()
            follower_cells[v] += n
            action_cells[action] += n
            while sources:
                low = sources & -sources
                influencer_counts[nodes[low.bit_length() - 1]] += 1
                sources ^= low
    return FollowupStats(dict(influencer_counts), dict(action_cells), dict(follower_cells), dags)


def reference_bin_numeric_attribute(attribute, values, weights, nbins) -> BinSpec:
    """Equi-depth minimax bins by the full DP: every split i < j is scanned
    for each (bin count, prefix length), O(nbins·m²)."""
    if nbins < 1:
        raise ValueError("nbins must be >= 1")
    mass: dict[float, float] = {}
    for entity, value in values:
        mass[float(value)] = mass.get(float(value), 0.0) + weights.get(entity, 0)
    distinct = sorted(mass)
    m = len(distinct)
    if m == 0:
        raise ValueError(f"no values for attribute {attribute!r}")
    if nbins > m:
        raise ValueError(f"nbins={nbins} exceeds {m} distinct values of {attribute!r}")
    prefix = [0.0]
    for v in distinct:
        prefix.append(prefix[-1] + mass[v])
    inf = float("inf")
    dp = [[inf] * (m + 1) for _ in range(nbins + 1)]
    dp[0][0] = 0.0
    for b in range(1, nbins + 1):
        for j in range(b, m - (nbins - b) + 1):
            best = inf
            for i in range(b - 1, j):
                cand = max(dp[b - 1][i], prefix[j] - prefix[i])
                if cand < best:
                    best = cand
            dp[b][j] = best
    cap = dp[nbins][m]
    boundaries: list[float] = []
    i = 0
    for b in range(nbins - 1):
        j_max = m - (nbins - 1 - b)
        j = i + 1
        while j < j_max and prefix[j + 1] - prefix[i] <= cap:
            j += 1
        boundaries.append(distinct[j - 1])
        i = j
    return BinSpec(attribute, tuple(boundaries), default_bin_labels(tuple(boundaries)))


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
            covs, times = [], []
            for index in indexes:
                t0 = time.perf_counter()
                eset = harness.run_algorithm(algo, index, k, l, config.seed, config.node_budget)
                times.append((time.perf_counter() - t0) * 1000.0)
                covs.append(eset.relative_coverage)
            point.coverages[algo] = covs
            point.medians[algo] = harness.median(covs)
            point.millis[algo] = harness.median(times)
        result.points.append(point)
    return result


def reference_weighted_draws(rng: random.Random, pool, count: int) -> list[int]:
    """Weighted draws without replacement by re-summing and scanning the
    pool for each draw."""
    pool = list(pool)
    picked = []
    for _ in range(count):
        total = sum(w for _, w in pool)
        r = rng.random() * total
        acc = 0.0
        chosen = len(pool) - 1
        for i, (_, w) in enumerate(pool):
            acc += w
            if r < acc:
                chosen = i
                break
        picked.append(pool.pop(chosen)[0])
    return picked


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


def buffer_predicate_index(fset, catalog: PredicateCatalog) -> PredicateIndex:
    """The byte-buffer index build the run-mask and class-code build
    replaced: per catalog id, the numeral slices its action runs fill and
    the numeral positions of its follower cells, set in a buffer of n bytes
    and packed by one `int(buf, 2)`."""
    n = len(fset)
    # Bit c of a bitset is character n-1-c of its base-2 numeral, so cell 0
    # is the numeral's last character.
    slices: dict[int, list[tuple[int, int]]] = {}
    singles: dict[int, list[int]] = {}
    action_ids = catalog.entity_ids[ACTION]
    by_follower = catalog.target == TARGET_FOLLOWER
    positions: dict[int, list[int]] = {}
    stop = n
    for action, followers in fset.runs:
        start = stop - len(followers)
        for gid in action_ids[action]:
            slices.setdefault(gid, []).append((start, stop))
        if by_follower:
            for pos, v in zip(range(stop - 1, start - 1, -1), followers):
                positions.setdefault(v, []).append(pos)
        stop = start
    user_ids = catalog.entity_ids[USER]
    if by_follower:
        for v, cell_positions in positions.items():
            for gid in user_ids[v]:
                singles.setdefault(gid, []).extend(cell_positions)
    elif n:
        for gid in user_ids[fset.influencer]:
            slices[gid] = [(0, n)]

    key_ids = sorted(slices.keys() | singles.keys())
    zeros = b"0" * n
    ones = bytearray(b"1") * n
    bits = []
    for gid in key_ids:
        buf = bytearray(zeros)
        for lo, hi in slices.get(gid, ()):
            buf[lo:hi] = ones[lo:hi]
        for pos in singles.get(gid, ()):
            buf[pos] = 49  # ord("1")
        bits.append(int(buf, 2))
    return PredicateIndex(fset, catalog, tuple(key_ids), tuple(bits), _entity_classes(fset, catalog))


def scan_annotation(expl, index) -> tuple[int, int, int]:
    """`annotate` by scanning the attribute tables entity by entity."""
    fset = index.followup_set
    catalog = index.catalog
    preds = [index.predicates[p] for p in expl.predicates]

    def sat(table, entity, dimension):
        keys = entity_keys(table, entity, catalog.bins)
        return all((p.dimension, p.attribute, p.value) in keys for p in preds if p.dimension == dimension)

    actions = sum(1 for a in fset.actions_performed if sat(catalog.action_attrs, a, ACTION))
    if catalog.target == TARGET_FOLLOWER:
        followers = sum(1 for v in fset.active_followers if sat(catalog.user_attrs, v, USER))
    else:
        followers = len(fset.active_followers) if sat(catalog.user_attrs, fset.influencer, USER) else 0
    return actions, followers, expl.raw_coverage


def reference_explanation_set_doc(eset: ExplanationSet, index: PredicateIndex) -> dict:
    """The explanation document built as a dict, key by key: the oracle of
    `explanation_set_json`, which writes `json.dumps(_, indent=2)` of it
    plus a newline."""
    rows = []
    for expl in eset.explanations:
        note = annotate(expl, index)
        rows.append(
            {
                "predicates": [
                    {
                        "dimension": index.predicates[pid].dimension,
                        "attribute": index.predicates[pid].attribute,
                        "value": index.predicates[pid].value,
                    }
                    for pid in expl.predicates
                ],
                "actions": note.actions,
                "followers": note.followers,
                "followups": note.followups,
            }
        )
    doc = {
        "influencer": index.followup_set.influencer,
        "total_followups": index.n_cells,
        "explanations": rows,
        "total_coverage": eset.total_coverage,
        "relative_coverage": eset.relative_coverage,
    }
    if eset.algorithm is not None:
        doc["algorithm"] = eset.algorithm
        doc["seed"] = eset.seed
    if eset.truncated:
        doc["truncated"] = True
    return doc


def reference_pipeline(config: harness.RunConfig) -> dict[str, bytes]:
    """The explanation JSON files and `summary.csv` that `run_pipeline`
    writes for a greedy or eager `config`, by file name, composed from the
    oracles: the reference parsers and attribute loader,
    `reference_followup_stats`, `compute_followup_set`,
    `reference_predicate_index`, `eager_greedy` (equal to the lazy greedy by
    acceptance criterion 1) and `scan_annotation`. Binning is the library's
    `prepare_bins`, and the catalog only maps the reference's keys to ids."""

    def read(path, parse, *args):
        with open(path, encoding="utf-8") as fh:
            return parse(fh, *args)

    graph = read(config.graph, reference_parse_social_graph)
    log = read(config.actions, reference_parse_action_log)
    user_attrs = read(config.user_attrs, reference_load_attribute_table, USER)
    action_attrs = read(config.action_attrs, reference_load_attribute_table, ACTION)
    stats = reference_followup_stats(graph, log, config.max_delay)
    bins = harness.prepare_bins(user_attrs, action_attrs, stats, config.nbins)
    catalog = PredicateCatalog(user_attrs, action_attrs, bins, config.target)
    ranked = sorted(stats.influencer_counts.items(), key=lambda it: (-it[1], it[0]))[: config.top_n]
    files = {}
    summary = "rank,influencer,followups,explanations,total_coverage,relative_coverage\n"
    for rank, (user, count) in enumerate(ranked, start=1):
        fset = compute_followup_set(graph, log, user, config.max_delay)
        keys, postings = reference_predicate_index(fset, user_attrs, action_attrs, bins, config.target)
        key_ids = tuple(catalog.key_ids[key] for key in keys)
        bits = tuple(sum(1 << c for c in p) for p in postings)
        index = PredicateIndex(fset, catalog, key_ids, bits, _entity_classes(fset, catalog))
        eset = eager_greedy(index, config.k, config.l)
        rows = []
        for expl in eset.explanations:
            actions, followers, followups = scan_annotation(expl, index)
            predicates = [
                {"dimension": dimension, "attribute": attribute, "value": value}
                for dimension, attribute, value in (keys[pid] for pid in expl.predicates)
            ]
            rows.append(
                {"predicates": predicates, "actions": actions, "followers": followers, "followups": followups}
            )
        doc = {
            "influencer": user,
            "total_followups": len(fset),
            "explanations": rows,
            "total_coverage": eset.total_coverage,
            "relative_coverage": eset.relative_coverage,
        }
        files[f"explanations_{rank:03d}_user{user}.json"] = (json.dumps(doc, indent=2) + "\n").encode("utf-8")
        summary += (
            f"{rank},{user},{count},{len(eset.explanations)},"
            f"{eset.total_coverage},{eset.relative_coverage!r}\n"
        )
    files["summary.csv"] = summary.encode("utf-8")
    return files


def followup_set(influencer: int, cells, actions_performed) -> FollowupSet:
    """The followup set of `cells`, given in any order: sorted into one run
    per action, actions and followers ascending. A repeated cell stays in
    its run, so `FollowupSet` rejects it."""
    runs: dict[str, list[int]] = {}
    for action, follower in cells:
        runs.setdefault(action, []).append(follower)
    return FollowupSet(influencer, ((a, tuple(sorted(runs[a]))) for a in sorted(runs)), actions_performed)


def index_from_postings(postings: list[list[int]], n_cells: int | None = None) -> PredicateIndex:
    """Index whose predicate i has exactly the given posting list.

    Cells become actions c000.. of one influencer with a single follower;
    predicate i is the action attribute p{i:03d}=1, so predicate ids follow
    the input order.
    """
    if n_cells is None:
        n_cells = max((c for pl in postings for c in pl), default=-1) + 1
    actions = [f"c{c:03d}" for c in range(n_cells)]
    fset = followup_set(1, (Cell(a, 2) for a in actions), actions)
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
    fset = followup_set(1, cells, actions)

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
