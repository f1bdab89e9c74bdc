"""Attribute tables, equi-depth binning, the run's predicate catalog, and
the predicate -> cell index.

A predicate is an `attribute = value` test on either the action or the
follower of a cell. Numeric attributes are binned first so that equality is
the only comparison the miner ever needs.

A run builds one `PredicateCatalog` once its bins are resolved: every key
the tables can produce gets an int id in sorted key order, and each
entity's ids are computed once and shared by every influencer's index.

`build_predicate_index` makes each predicate's cells one bitset without a
loop over cells. Cells are numbered run by run, so an action predicate's
bits are the OR of its runs' masks. On the user side, the distinct id-sets
of the active followers are classes: one byte per cell holds its
follower's class code, and a user predicate's bits are that code string
translated to a base-2 numeral. The index keeps the classes, with their
entity counts, for `miner.annotate`.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Hashable, Iterable, Mapping, NamedTuple

from .errors import ConfigError, ParseError
from .ingestion import FollowupSet

USER = "user"
ACTION = "action"
DIMENSIONS = (ACTION, USER)

# Who the "user" side of a predicate is evaluated on. Follower semantics is
# the default. The influencer reading tests the influencer's own attributes,
# the same on every cell, so a user predicate then covers all of an
# influencer's cells or none of them.
TARGET_FOLLOWER = "follower"
TARGET_INFLUENCER = "influencer"


class AttributeTable:
    """Per-entity attribute values for one dimension.

    Attributes declared in the `#numeric:` header are single-valued floats
    (at most one row per entity); all other attributes may carry several
    distinct values per entity (genre, actor, ...).
    """

    def __init__(self, dimension: str, numeric: Iterable[str] = ()):
        if dimension not in DIMENSIONS:
            raise ValueError(f"dimension must be one of {DIMENSIONS}")
        self.dimension = dimension
        self.numeric = frozenset(numeric)
        self._rows: dict[Hashable, dict[str, tuple]] = {}

    def add(self, entity: Hashable, attribute: str, value: str) -> None:
        attrs = self._rows.setdefault(entity, {})
        if attribute in self.numeric:
            if attribute in attrs:
                raise ValueError(f"duplicate value for numeric attribute {attribute!r} of {entity!r}")
            try:
                number = float(value)
            except ValueError:
                raise ValueError(f"non-numeric value {value!r} for numeric attribute {attribute!r}") from None
            if not math.isfinite(number):
                raise ValueError(f"non-finite value {value!r} for numeric attribute {attribute!r}")
            attrs[attribute] = (number,)
        else:
            current = attrs.get(attribute, ())
            if value not in current:
                attrs[attribute] = current + (value,)

    def entities(self) -> tuple:
        return tuple(self._rows)

    def attributes_of(self, entity: Hashable) -> tuple[str, ...]:
        return tuple(sorted(self._rows.get(entity, ())))

    def items(self, entity: Hashable):
        """(attribute, values) pairs of one entity, in insertion order."""
        return self._rows.get(entity, {}).items()

    def distinct_values(self) -> dict[str, set]:
        """Every attribute's values over all entities."""
        found: dict[str, set] = {}
        for attrs in self._rows.values():
            for attribute, values in attrs.items():
                found.setdefault(attribute, set()).update(values)
        return found

    def values(self, entity: Hashable, attribute: str) -> tuple:
        return self._rows.get(entity, {}).get(attribute, ())

    def numeric_value(self, entity: Hashable, attribute: str) -> float | None:
        vals = self.values(entity, attribute)
        return vals[0] if vals else None


def load_attribute_table(lines: Iterable[str], dimension: str) -> AttributeTable:
    """Parse `entity<TAB>attribute<TAB>value` rows; an empty value is a
    value like any other.

    A `#numeric: a,b` header (before any data row) declares which attributes
    are numeric. User-dimension entity ids must be integers.
    """
    table = AttributeTable(dimension)
    numeric: set[str] = set()
    saw_data = False
    for lineno, raw in enumerate(lines, start=1):
        # Fast path for a data row: it takes every row the checks below
        # would, with the same values, so they only skip a blank or `#`
        # line, read a `#numeric:` header, or reject the line.
        parts = raw.split("\t")
        if len(parts) == 3:
            entity_raw, attribute, value = parts[0].strip(), parts[1].strip(), parts[2].strip()
            if entity_raw and attribute and entity_raw[0] != "#":
                try:
                    entity = int(entity_raw) if dimension == USER else entity_raw
                except ValueError:
                    raise ParseError(f"line {lineno}: non-integer user id {entity_raw!r}") from None
                saw_data = True
                try:
                    table.add(entity, attribute, value)
                except ValueError as exc:
                    raise ParseError(f"line {lineno}: {exc}") from None
                continue
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
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 3 tab-separated columns, got {len(parts)}")
        # any three-field row with an entity and an attribute took the fast path
        raise ParseError(f"line {lineno}: empty entity or attribute")
    return table


@dataclass(frozen=True)
class BinSpec:
    """Cut points for one numeric attribute. A value equal to a boundary
    falls in the lower bin; values beyond either end land in the edge bins."""

    attribute: str
    boundaries: tuple[float, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        try:
            finite = all(math.isfinite(b) for b in self.boundaries)
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise ValueError("boundaries must be finite")
        if any(a >= b for a, b in zip(self.boundaries, self.boundaries[1:])):
            raise ValueError("boundaries must be strictly increasing")
        if len(self.labels) != len(self.boundaries) + 1:
            raise ValueError("need exactly one label per bin")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be distinct")

    def bin_of(self, value: float) -> int:
        return bisect_left(self.boundaries, value)

    def label_of(self, value: float) -> str:
        return self.labels[self.bin_of(value)]

    def to_dict(self) -> dict:
        return {
            "attribute": self.attribute,
            "boundaries": list(self.boundaries),
            "labels": list(self.labels),
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "BinSpec":
        """Raises ParseError unless `doc` is a well-formed bin spec."""
        if not isinstance(doc, dict):
            raise ParseError(f"bin spec must be an object, got {doc!r}")
        missing = [key for key in ("attribute", "boundaries", "labels") if key not in doc]
        if missing:
            raise ParseError(f"bin spec {doc!r} lacks {', '.join(missing)}")
        attribute, boundaries, labels = doc["attribute"], doc["boundaries"], doc["labels"]
        if (
            not isinstance(attribute, str)
            or not isinstance(boundaries, list)
            or not all(isinstance(b, (int, float)) and not isinstance(b, bool) for b in boundaries)
            or not isinstance(labels, list)
            or not all(isinstance(label, str) for label in labels)
        ):
            raise ParseError(
                f"bin spec {doc!r} needs a string attribute, numeric boundaries and string labels"
            )
        try:
            return cls(attribute, tuple(boundaries), tuple(labels))
        except ValueError as exc:
            raise ParseError(f"bin spec for {attribute!r}: {exc}") from None


def _format_cut(x: float) -> str:
    """`x` as `:g` writes it when that reads back as `x`, else its exact
    `repr`: six significant digits would give two cuts one label."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def default_bin_labels(boundaries: tuple[float, ...]) -> tuple[str, ...]:
    """`pre-X` / `lo-hi` / `X+` display labels."""
    if not boundaries:
        return ("all",)
    labels = [f"pre-{_format_cut(boundaries[0])}"]
    labels += [f"{_format_cut(a)}-{_format_cut(b)}" for a, b in zip(boundaries, boundaries[1:])]
    labels.append(f"{_format_cut(boundaries[-1])}+")
    return tuple(labels)


def bin_numeric_attribute(
    attribute: str,
    values: Iterable[tuple[Hashable, float]],
    weights: Mapping[Hashable, float],
    nbins: int,
) -> BinSpec:
    """Equi-depth bins over followup mass.

    Equal values always share a bin, so the bins partition the distinct
    values into `nbins` contiguous runs minimizing the heaviest bin (exact
    minimax, dynamic program over run boundaries). Weights are
    non-negative, so each DP step is a binary search: O(nbins·m·log m)
    over m distinct values.
    """
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
    w = [mass[v] for v in distinct]
    prefix = [0.0]
    for x in w:
        prefix.append(prefix[-1] + x)

    # dp[b][j] = best achievable max-bin-weight splitting the first j values
    # into b bins, each bin non-empty.
    inf = float("inf")
    dp = [[inf] * (m + 1) for _ in range(nbins + 1)]
    dp[0][0] = 0.0
    for b in range(1, nbins + 1):
        prev, row = dp[b - 1], dp[b]
        for j in range(b, m - (nbins - b) + 1):
            # min over i of max(prev[i], prefix[j] - prefix[i]): prev rises
            # with i and the last bin's weight falls, so the best split is
            # the first i where prev[i] >= prefix[j] - prefix[i], or the one
            # before it.
            lo, hi = b - 1, j
            while lo < hi:
                mid = (lo + hi) // 2
                if prev[mid] >= prefix[j] - prefix[mid]:
                    hi = mid
                else:
                    lo = mid + 1
            best = prev[lo] if lo < j else inf
            if lo > b - 1:
                best = min(best, prefix[j] - prefix[lo - 1])
            row[j] = best
    cap = dp[nbins][m]

    # Canonical split: greedily fill each bin up to the optimal cap, keeping
    # at least one value for every remaining bin.
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


class Predicate(NamedTuple):
    """The key of one predicate: `attribute = value` on one dimension."""

    dimension: str
    attribute: str
    value: str


class PredicateCatalog:
    """Every predicate one run's attribute tables can produce, interned as an
    int id in sorted key order, and each entity's predicate ids, memoised.

    Built once per run, after the bins are resolved, by one scan of the
    table rows plus each bin's labels. `predicates[gid]` is the key of id
    `gid`, so ids order as their keys do, and every action id is below
    `n_action_keys` and every user id at or above it.
    `entity_ids[dimension][entity]` is the frozenset of ids the entity
    satisfies (empty for one the table does not hold): computed on the
    first lookup and kept for the run, with equal sets stored once.
    Bins are keyed by attribute name alone, so two bin specs for one
    attribute are a ConfigError.
    """

    def __init__(
        self,
        user_attrs: AttributeTable,
        action_attrs: AttributeTable,
        bins: Iterable[BinSpec] = (),
        target: str = TARGET_FOLLOWER,
    ):
        if user_attrs.dimension != USER or action_attrs.dimension != ACTION:
            raise ConfigError("attribute tables passed with mismatched dimensions")
        if target not in (TARGET_FOLLOWER, TARGET_INFLUENCER):
            raise ConfigError(f"unknown user-predicate target {target!r}")
        binmap: dict[str, BinSpec] = {}
        for spec in bins:
            if spec.attribute in binmap:
                raise ConfigError(
                    f"two bin specs for attribute {spec.attribute!r}: bins are keyed by attribute name, "
                    "so a numeric attribute cannot be declared in both the user and the action table"
                )
            binmap[spec.attribute] = spec
        keys = set()
        for table in (user_attrs, action_attrs):
            missing = sorted(a for a in table.numeric if a not in binmap)
            if missing:
                raise ConfigError(f"no bin spec for numeric attribute(s): {', '.join(missing)}")
            for attribute in table.numeric:
                keys.update((table.dimension, attribute, label) for label in binmap[attribute].labels)
            for attribute, values in table.distinct_values().items():
                if attribute not in table.numeric:
                    keys.update((table.dimension, attribute, value) for value in values)
        self.user_attrs = user_attrs
        self.action_attrs = action_attrs
        self.bins = binmap
        self.target = target
        self.predicates = tuple(Predicate(*key) for key in sorted(keys))
        self.key_ids = {key: gid for gid, key in enumerate(self.predicates)}
        self.n_action_keys = bisect_left(self.predicates, (USER,))
        self.entity_ids = {USER: _EntityIds(self, user_attrs), ACTION: _EntityIds(self, action_attrs)}
        self._shared: dict[frozenset[int], frozenset[int]] = {}

    def _entity_ids(self, table: AttributeTable, entity: Hashable) -> frozenset[int]:
        key_ids = self.key_ids
        dimension = table.dimension
        ids = []
        for attribute, values in table.items(entity):
            if attribute in table.numeric:
                ids.append(key_ids[(dimension, attribute, self.bins[attribute].label_of(values[0]))])
            else:
                ids += [key_ids[(dimension, attribute, value)] for value in values]
        ids = frozenset(ids)
        return self._shared.setdefault(ids, ids)


class _EntityIds(dict):
    """entity -> frozenset of catalog ids, computed on its first lookup."""

    def __init__(self, catalog: PredicateCatalog, table: AttributeTable):
        super().__init__()
        self._catalog = catalog
        self._table = table

    def __missing__(self, entity: Hashable) -> frozenset[int]:
        ids = self[entity] = self._catalog._entity_ids(self._table, entity)
        return ids


class PredicateIndex:
    """Inverted index from predicates to the cells that satisfy them.

    `bits[pid]` is the one representation of a predicate's cells: bit c is
    set when cell c satisfies predicate pid. Predicates that match no cell
    never enter the index. A local pid is a position in `key_ids`, the
    ascending catalog ids of the index's predicates, so pids follow sorted
    key order; `predicates[pid]` is that id's key.

    `action_classes` and `user_classes` map each distinct catalog id-set
    among the set's entities to how many entities hold it: the performed
    actions, and the active followers (under the influencer target, the
    influencer's id-set stands for every active follower). `annotate`
    counts entities per class from them; the builder passes them as
    `classes`.
    """

    def __init__(
        self,
        followup_set: FollowupSet,
        catalog: PredicateCatalog,
        key_ids: tuple[int, ...],
        bits: tuple[int, ...],
        classes: tuple[Counter, Counter],
    ):
        self.followup_set = followup_set
        self.catalog = catalog
        self.key_ids = key_ids
        self.predicates = tuple(map(catalog.predicates.__getitem__, key_ids))
        self.bits = bits
        self.n_cells = len(followup_set)
        self.n_predicates = len(key_ids)
        self.full_mask = (1 << self.n_cells) - 1
        self.action_classes, self.user_classes = classes

    def pid_of(self, dimension: str, attribute: str, value: str) -> int:
        gid = self.catalog.key_ids.get((dimension, attribute, value), -1)
        pid = bisect_left(self.key_ids, gid)
        if pid == self.n_predicates or self.key_ids[pid] != gid:
            raise KeyError((dimension, attribute, value))
        return pid


def _entity_classes(fset: FollowupSet, catalog: PredicateCatalog) -> tuple[Counter, Counter]:
    """Each distinct id-set of `fset`'s performed actions and of its active
    followers, with how many of them hold it, in first-seen order. Under
    the influencer target the user side is the influencer's id-set,
    counted once per active follower."""
    action_ids, user_ids = catalog.entity_ids[ACTION], catalog.entity_ids[USER]
    actions = Counter(map(action_ids.__getitem__, fset.actions_performed))
    if catalog.target == TARGET_FOLLOWER:
        return actions, Counter(map(user_ids.__getitem__, fset.active_followers))
    return actions, Counter({user_ids[fset.influencer]: len(fset.active_followers)})


# A predicate's bits are the OR of its runs' masks while it lies on at most
# this many runs. Each OR copies the int built so far, so r runs cost
# O(r * n) that way; a predicate on more runs is filled in a byte buffer
# and converted once, O(n) whatever its number of runs, which keeps the
# build linear in the cells.
_MASK_RUNS = 256
# A code byte names one of up to 255 follower classes of one group; 255
# stands for a class of another group.
_GROUP = 255


def build_predicate_index(
    fset: FollowupSet,
    catalog: PredicateCatalog | AttributeTable,
    action_attrs: AttributeTable | None = None,
    bins: Iterable[BinSpec] = (),
    target: str = TARGET_FOLLOWER,
) -> PredicateIndex:
    """Index `fset`'s cells by the predicates they satisfy.

    Action predicates test the cell's action; user predicates test the
    follower (or the influencer under the alternate target). Entities missing
    an attribute simply satisfy none of its predicates.

    Takes the run's `PredicateCatalog`. The form
    `build_predicate_index(fset, user_attrs, action_attrs, bins, target)`
    builds a catalog of those tables for this one call.

    An entity's ids come from the catalog, computed once per run. Cells are
    numbered in run order, so each run is one contiguous mask, ORed into
    each of its action's ids. Each distinct id-set of the active followers
    is a class: every cell gets its follower's class code, one byte, and a
    user id's bits are that code string translated to a base-2 numeral.
    Under the influencer target, each of the influencer's ids covers every
    cell. The build is linear in the cells.
    """
    if not isinstance(catalog, PredicateCatalog):
        catalog = PredicateCatalog(catalog, action_attrs, bins, target)
    elif action_attrs is not None or bins or target != TARGET_FOLLOWER:
        raise TypeError("tables, bins and target come from the catalog")
    n = len(fset)
    action_classes, user_classes = _entity_classes(fset, catalog)
    bits: dict[int, int] = {}
    run_ids = catalog.entity_ids[ACTION]
    if len(fset.runs) > _MASK_RUNS:
        run_ids, dense = _dense_action_bits(fset, run_ids)
        bits.update(dense)
    start = 0
    for action, followers in fset.runs:
        m = len(followers)
        ids = run_ids[action]
        if ids:
            mask = ((1 << m) - 1) << start
            for gid in ids:
                bits[gid] = bits.get(gid, 0) | mask
        start += m
    if catalog.target == TARGET_FOLLOWER:
        bits.update(_follower_bits(fset, catalog.entity_ids[USER], list(user_classes)))
    elif n:
        bits.update(dict.fromkeys(catalog.entity_ids[USER][fset.influencer], (1 << n) - 1))
    key_ids = tuple(sorted(bits))
    bits_of = tuple(map(bits.__getitem__, key_ids))
    return PredicateIndex(fset, catalog, key_ids, bits_of, (action_classes, user_classes))


def _dense_action_bits(fset: FollowupSet, action_ids: Mapping) -> tuple[dict, dict[int, int]]:
    """The action ids on more than `_MASK_RUNS` of `fset`'s runs, each
    filled in a byte buffer. Returns the ids each run's action keeps for
    the masks, and the bits of those dense ids."""
    actions = [action for action, _ in fset.runs]
    run_ids = list(map(action_ids.__getitem__, actions))
    runs_of = Counter(chain.from_iterable(run_ids))
    dense = frozenset(gid for gid, runs in runs_of.items() if runs > _MASK_RUNS)
    # equal id-sets are one object in the catalog: split each once
    split = {ids: (ids & dense, ids - dense) for ids in set(run_ids)}
    n = len(fset)
    ones = b"1" * n
    bufs = {gid: bytearray(b"0") * n for gid in dense}
    # bit c is character n-1-c of the base-2 numeral
    stop = n
    for ids, (_, followers) in zip(run_ids, fset.runs):
        start = stop - len(followers)
        for gid in split[ids][0]:
            bufs[gid][start:stop] = ones[start:stop]
        stop = start
    sparse = {action: split[ids][1] for action, ids in zip(actions, run_ids)}
    return sparse, {gid: int(buf, 2) for gid, buf in bufs.items()}


def _follower_bits(fset: FollowupSet, user_ids: Mapping, classes: list[frozenset[int]]) -> dict[int, int]:
    """The bits of every user id the active followers hold, by catalog id.

    `classes` are the followers' distinct id-sets. Each group of up to 255
    classes gets one code string, a byte per cell from the last cell to the
    first, and a user id's bits are the OR over groups of that string
    translated to a base-2 numeral.
    """
    active = fset.active_followers
    cells = list(chain.from_iterable(map(itemgetter(1), fset.runs)))
    bits: dict[int, int] = {}
    for base in range(0, len(classes), _GROUP):
        group = classes[base : base + _GROUP]
        code = dict.fromkeys(classes, _GROUP)
        code.update(zip(group, range(len(group))))
        code_of = dict(zip(active, map(code.__getitem__, map(user_ids.__getitem__, active))))
        codes = bytes(map(code_of.__getitem__, cells))[::-1]
        tables: dict[int, bytearray] = {}
        for c, ids in enumerate(group):
            for gid in ids:
                table = tables.get(gid)
                if table is None:
                    table = tables[gid] = bytearray(b"0") * 256
                table[c] = 49  # ord("1")
        for gid, table in tables.items():
            bits[gid] = bits.get(gid, 0) | int(codes.translate(table), 2)
    return bits


def predicate_popularity(index: PredicateIndex) -> list[tuple[int, int]]:
    """Predicates by cell count, descending, ties by ascending id."""
    sizes = [(pid, index.bits[pid].bit_count()) for pid in range(index.n_predicates)]
    return sorted(sizes, key=lambda it: (-it[1], it[0]))


def bins_to_json(specs: Iterable[BinSpec]) -> str:
    return json.dumps([s.to_dict() for s in specs], indent=2) + "\n"


def bins_from_json(text: str) -> list[BinSpec]:
    """Bin specs from `bins_to_json` output; raises ParseError on anything else."""
    try:
        docs = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, a too-long int, or too deep nesting
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(docs, list):
        raise ParseError("expected a JSON list of bin specs")
    return [BinSpec.from_dict(doc) for doc in docs]
