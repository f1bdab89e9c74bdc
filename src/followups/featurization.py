"""Attribute tables, equi-depth binning, and the predicate -> cell index.

A predicate is an `attribute = value` test on either the action or the
follower of a cell. Numeric attributes are binned first so that equality is
the only comparison the miner ever needs.
"""
from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Hashable, Iterable, Mapping, NamedTuple

from .errors import ConfigError, ParseError
from .ingestion import FollowupSet

USER = "user"
ACTION = "action"
DIMENSIONS = (ACTION, USER)

# Who the "user" side of a predicate is evaluated on. Follower semantics is
# the default; the influencer variant is kept selectable because the two
# readings disagree only on degenerate inputs.
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
                attrs[attribute] = (float(value),)
            except ValueError:
                raise ValueError(f"non-numeric value {value!r} for numeric attribute {attribute!r}") from None
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

    def values(self, entity: Hashable, attribute: str) -> tuple:
        return self._rows.get(entity, {}).get(attribute, ())

    def numeric_value(self, entity: Hashable, attribute: str) -> float | None:
        vals = self.values(entity, attribute)
        return vals[0] if vals else None


def load_attribute_table(lines: Iterable[str], dimension: str) -> AttributeTable:
    """Parse `entity<TAB>attribute<TAB>value` rows.

    A `#numeric: a,b` header (before any data row) declares which attributes
    are numeric. User-dimension entity ids must be integers.
    """
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
        entity: Hashable = entity_raw
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


@dataclass(frozen=True)
class BinSpec:
    """Cut points for one numeric attribute. A value equal to a boundary
    falls in the lower bin; values beyond either end land in the edge bins."""

    attribute: str
    boundaries: tuple[float, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.boundaries, self.boundaries[1:])):
            raise ValueError("boundaries must be strictly increasing")
        if len(self.labels) != len(self.boundaries) + 1:
            raise ValueError("need exactly one label per bin")

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
    return f"{x:g}"


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
    minimax, dynamic program over run boundaries).
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
        for j in range(b, m - (nbins - b) + 1):
            best = inf
            for i in range(b - 1, j):
                cand = max(dp[b - 1][i], prefix[j] - prefix[i])
                if cand < best:
                    best = cand
            dp[b][j] = best
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
    pid: int
    dimension: str
    attribute: str
    value: str


class PredicateIndex:
    """Inverted index from predicates to the cells that satisfy them.

    `bits[pid]` is the one representation of a predicate's cells: bit c is
    set when cell c satisfies predicate pid. Predicates that match no cell
    never enter the catalog.

    `action_keys` and `user_keys` keep the build's per-entity predicate keys
    `(dimension, attribute, value)` for the entities `miner.annotate` reads:
    every action the influencer performed, and the active followers (or the
    influencer alone under the influencer target).
    """

    def __init__(
        self,
        followup_set: FollowupSet,
        user_attrs: AttributeTable,
        action_attrs: AttributeTable,
        bins: Mapping[str, BinSpec],
        target: str,
        predicates: tuple[Predicate, ...],
        bits: tuple[int, ...],
        action_keys: Mapping[Hashable, frozenset],
        user_keys: Mapping[Hashable, frozenset],
    ):
        self.followup_set = followup_set
        self.user_attrs = user_attrs
        self.action_attrs = action_attrs
        self.bins = dict(bins)
        self.target = target
        self.predicates = predicates
        self.bits = bits
        self.action_keys = action_keys
        self.user_keys = user_keys
        self.n_cells = len(followup_set)
        self.n_predicates = len(predicates)
        self.full_mask = (1 << self.n_cells) - 1
        self._pid_by_key = {(p.dimension, p.attribute, p.value): p.pid for p in predicates}

    def pid_of(self, dimension: str, attribute: str, value: str) -> int:
        return self._pid_by_key[(dimension, attribute, value)]


def _entity_predicate_keys(
    table: AttributeTable, entity: Hashable, dimension: str, bins: Mapping[str, BinSpec]
) -> frozenset[tuple[str, str, str]]:
    keys = []
    for attribute, values in table.items(entity):
        if attribute in table.numeric:
            keys.append((dimension, attribute, bins[attribute].label_of(values[0])))
        else:
            keys += [(dimension, attribute, value) for value in values]
    return frozenset(keys)


def build_predicate_index(
    fset: FollowupSet,
    user_attrs: AttributeTable,
    action_attrs: AttributeTable,
    bins: Iterable[BinSpec] = (),
    target: str = TARGET_FOLLOWER,
) -> PredicateIndex:
    """Index `fset`'s cells by the predicates they satisfy.

    Action predicates test the cell's action; user predicates test the
    follower (or the influencer under the alternate target). Entities missing
    an attribute simply satisfy none of its predicates.

    Keys are computed once per distinct action and user, not per cell. Each
    run of consecutive cells sharing an action sets its action predicates'
    bits as one slice, and each predicate's bitset is packed from a byte
    buffer in one conversion.
    """
    if user_attrs.dimension != USER or action_attrs.dimension != ACTION:
        raise ConfigError("attribute tables passed with mismatched dimensions")
    if target not in (TARGET_FOLLOWER, TARGET_INFLUENCER):
        raise ConfigError(f"unknown user-predicate target {target!r}")
    binmap = {spec.attribute: spec for spec in bins}
    for table in (user_attrs, action_attrs):
        missing = sorted(a for a in table.numeric if a not in binmap)
        if missing:
            raise ConfigError(f"no bin spec for numeric attribute(s): {', '.join(missing)}")

    cells = fset.cells
    n = len(cells)
    action_runs = []  # (action, start, stop) per run of cells sharing an action
    start = 0
    for action, group in groupby(cells, itemgetter(0)):
        stop = start + len(list(group))
        action_runs.append((action, start, stop))
        start = stop
    action_keys = {
        a: _entity_predicate_keys(action_attrs, a, ACTION, binmap)
        for a in dict.fromkeys([*fset.actions_performed, *(a for a, _, _ in action_runs)])
    }
    # key -> cell ranges [start, stop) it holds, and single cell ids it holds
    ranges: dict[tuple, list[tuple[int, int]]] = {}
    singles: dict[tuple, list[int]] = {}
    for action, start, stop in action_runs:
        for key in action_keys[action]:
            ranges.setdefault(key, []).append((start, stop))
    if target == TARGET_FOLLOWER:
        user_keys = {v: _entity_predicate_keys(user_attrs, v, USER, binmap) for v in fset.active_followers}
        cells_of: dict[int, list[int]] = {}
        for cell_id, cell in enumerate(cells):
            cells_of.setdefault(cell.follower, []).append(cell_id)
        for v, cell_ids in cells_of.items():
            for key in user_keys[v]:
                singles.setdefault(key, []).extend(cell_ids)
    else:
        user_keys = {fset.influencer: _entity_predicate_keys(user_attrs, fset.influencer, USER, binmap)}
        if n:
            for key in user_keys[fset.influencer]:
                ranges[key] = [(0, n)]

    catalog = sorted(ranges.keys() | singles.keys())
    zeros = b"0" * n
    ones = memoryview(b"1" * n)
    bits = []
    for key in catalog:
        # Bit c of the bitset is character n-1-c of its base-2 numeral.
        buf = bytearray(zeros)
        for lo, hi in ranges.get(key, ()):
            buf[lo:hi] = ones[lo:hi]
        for cell_id in singles.get(key, ()):
            buf[cell_id] = 49  # ord("1")
        buf.reverse()
        bits.append(int(buf, 2))
    return PredicateIndex(
        fset,
        user_attrs,
        action_attrs,
        binmap,
        target,
        tuple(Predicate(pid, *key) for pid, key in enumerate(catalog)),
        tuple(bits),
        action_keys,
        user_keys,
    )


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
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(docs, list):
        raise ParseError("expected a JSON list of bin specs")
    return [BinSpec.from_dict(doc) for doc in docs]
