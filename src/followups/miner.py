"""Explanation mining: coverage functions, the lazy double greedy, an eager
reference greedy, and per-explanation annotation statistics.

An explanation is a conjunction of predicates; its cells are the intersection
of their cell bitsets. A set of explanations covers the union of their cells;
`ExplanationSet` derives that union, its size and its share of the followup
set from the explanations it is built with, so every algorithm's figures come
from one formula.
The miner greedily grows one explanation at a time, always appending the
predicate with the largest marginal gain over the cells not yet covered by
earlier explanations. The only state an explanation in progress needs is the
running intersection of its chosen predicates' bitsets, ANDed with the
bitset of cells still unmarked.

Marginals never increase as an explanation grows or as more cells get marked,
which lets a max-heap of cached marginals skip most recomputations. Each heap
entry is a `(-cov, pid, stamp)` tuple: the stamp is `explanations * l +
depth` at the time `cov` was computed, so it never repeats across
explanations, and an entry popped with the current stamp is exact and can be
accepted without any recount. heapq's tuple order puts the largest coverage
first and breaks ties by the lower predicate id, the tie-break the eager
reference shares; predicate ids are unique, so the stamp never decides.

`annotate` counts an explanation's actions and followers by testing its
predicates' catalog ids against the index's entity classes: each distinct
id-set of the performed actions and of the active followers, once, weighted
by how many entities hold it. `explanation_set_json` writes the document's
fixed schema directly: byte for byte what `json.dumps` writes for
`explanation_set_doc`'s dict with `indent=2`, plus a newline. Library
callers that want the dict still call `explanation_set_doc`.
"""
from __future__ import annotations

import heapq
import json
from dataclasses import InitVar, dataclass, field
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Mapping, NamedTuple

from .featurization import PredicateIndex


class Annotation(NamedTuple):
    """Table-row statistics for one explanation."""

    actions: int
    followers: int
    followups: int


class Explanation:
    """A mined conjunction: predicate ids in selection order, the full cell
    set it covers, and how many of those cells were new when it was chosen.

    The covered set is carried as a bitset and only materialized on demand.
    """

    __slots__ = ("predicates", "covered_bits", "raw_coverage", "marginal_coverage")

    def __init__(self, predicates: tuple[int, ...], covered_bits: int, raw_coverage: int, marginal_coverage: int):
        self.predicates = predicates
        self.covered_bits = covered_bits
        self.raw_coverage = raw_coverage
        self.marginal_coverage = marginal_coverage

    @property
    def covered(self) -> tuple[int, ...]:
        return _bit_indices(self.covered_bits)

    def __repr__(self) -> str:
        return (
            f"Explanation(predicates={self.predicates}, raw={self.raw_coverage}, "
            f"marginal={self.marginal_coverage})"
        )


@dataclass
class ExplanationSet:
    """Up to k explanations and the union coverage they derive: the bitset
    of cells at least one covers, its size, and that size's share of the
    followup set's `n_cells`. `algorithm`, `seed` and `truncated` tag a
    baseline's run."""

    explanations: list[Explanation]
    n_cells: InitVar[int]
    algorithm: str | None = None
    seed: int | None = None
    truncated: bool = False
    marked_bits: int = field(init=False)
    total_coverage: int = field(init=False)
    relative_coverage: float = field(init=False)

    def __post_init__(self, n_cells: int) -> None:
        self.marked_bits = 0
        for expl in self.explanations:
            self.marked_bits |= expl.covered_bits
        self.total_coverage = self.marked_bits.bit_count()
        self.relative_coverage = self.total_coverage / n_cells if n_cells else 0.0

    @property
    def marked(self) -> tuple[int, ...]:
        return _bit_indices(self.marked_bits)


def _check_predicates(index: PredicateIndex, predicates: Iterable[int]) -> list[int]:
    pids = list(predicates)
    for pid in pids:
        if not 0 <= pid < index.n_predicates:
            raise ValueError(f"unknown predicate id {pid}")
    return pids


def covered_bits(index: PredicateIndex, predicates: Iterable[int]) -> int:
    """Bitset of cells satisfying every predicate; the empty conjunction
    covers the whole followup set."""
    bits = index.full_mask
    for pid in _check_predicates(index, predicates):
        bits &= index.bits[pid]
    return bits


def coverage_of_explanation(index: PredicateIndex, predicates: Iterable[int]) -> int:
    """|cells satisfying all `predicates`|."""
    return covered_bits(index, predicates).bit_count()


def coverage_of_set(index: PredicateIndex, explanations: Iterable[Iterable[int]]) -> int:
    """|cells satisfying at least one of the `explanations`|."""
    union = 0
    for predicates in explanations:
        union |= covered_bits(index, predicates)
    return union.bit_count()


def _build_heap(index: PredicateIndex) -> list[tuple[int, int, int]]:
    heap = [(-index.bits[pid].bit_count(), pid, 0) for pid in range(index.n_predicates)]
    heapq.heapify(heap)
    return heap


def next_explanation(
    heap: list[tuple[int, int, int]],
    unmarked: int,
    index: PredicateIndex,
    l: int,
    n_explanations: int,
) -> Explanation:
    """Greedily append up to `l` predicates to a fresh explanation.

    `heap` is this call's private copy (entries are consumed); `unmarked` is
    the bitset of cells no earlier explanation covers. Entries must carry
    marginals no older than stamp `n_explanations * l`; the topmost entry is
    expected current. A catalog that runs out first leaves the explanation
    shorter than `l`.
    """
    base = n_explanations * l
    chosen: list[int] = []
    inter = index.full_mask
    live = inter & unmarked
    while heap and len(chosen) < l:
        _, pid, stamp = heap[0]
        need = base + len(chosen)
        if stamp < need:
            heapq.heapreplace(heap, (-(index.bits[pid] & live).bit_count(), pid, need))
            continue
        heapq.heappop(heap)
        chosen.append(pid)
        inter &= index.bits[pid]
        live = inter & unmarked
    return Explanation(tuple(chosen), inter, inter.bit_count(), live.bit_count())


def greedy_explanations(index: PredicateIndex, l: int) -> Iterator[Explanation]:
    """The lazy double greedy as a stream: each explanation of up to `l`
    predicates in turn, so the first k are `mine_explanations` at k.

    The heap and the unmarked cells live in the generator. It stops once no
    explanation can cover an unmarked cell; an empty catalog yields nothing.
    """
    heap = _build_heap(index)
    unmarked = index.full_mask
    n = 0
    while heap:
        stamp = n * l
        while heap[0][2] < stamp:
            pid = heap[0][1]
            heapq.heapreplace(heap, (-(index.bits[pid] & unmarked).bit_count(), pid, stamp))
        if heap[0][0] == 0:
            return
        # entries are immutable, so copying the heap is a shallow list copy
        expl = next_explanation(list(heap), unmarked, index, l, n)
        if expl.marginal_coverage == 0:
            return
        unmarked &= ~expl.covered_bits
        n += 1
        yield expl


def mine_explanations(index: PredicateIndex, k: int, l: int) -> ExplanationSet:
    """Lazy double greedy: up to `k` explanations of `l` predicates each.

    Stops early once no explanation can cover any unmarked cell; an empty
    catalog yields an empty set.
    """
    return ExplanationSet(_first(greedy_explanations(index, l), k, l), index.n_cells)


def eager_explanations(index: PredicateIndex, l: int) -> Iterator[Explanation]:
    """The eager reference greedy as a stream: each explanation in turn, so
    the first k are `eager_greedy` at k. Stops once no predicate covers an
    unmarked cell."""
    unmarked = index.full_mask
    while True:
        chosen: list[int] = []
        inter = index.full_mask
        while len(chosen) < l:
            best_pid = -1
            best_cov = -1
            for pid in range(index.n_predicates):
                if pid in chosen:
                    continue
                cov = (index.bits[pid] & inter & unmarked).bit_count()
                if cov > best_cov:
                    best_pid, best_cov = pid, cov
            if best_pid < 0:
                break
            if not chosen and best_cov == 0:
                break
            chosen.append(best_pid)
            inter &= index.bits[best_pid]
        if not chosen:
            return
        newly = inter & unmarked
        if not newly:
            return
        unmarked &= ~inter
        yield Explanation(tuple(chosen), inter, inter.bit_count(), newly.bit_count())


def eager_greedy(index: PredicateIndex, k: int, l: int) -> ExplanationSet:
    """Reference greedy recomputing every predicate's marginal at every step.

    Kept deliberately independent of the heap machinery: it must produce
    results identical to `mine_explanations` under the shared tie-break
    (highest marginal, then lowest predicate id).
    """
    return ExplanationSet(_first(eager_explanations(index, l), k, l), index.n_cells)


def _bit_indices(bits: int) -> tuple[int, ...]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


def _first(explanations: Iterator[Explanation], k: int, l: int) -> list[Explanation]:
    """The first `k` explanations of a stream; `k` and the stream's `l` must
    both be >= 1."""
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    return list(islice(explanations, k))


def annotate(explanation: Explanation, index: PredicateIndex) -> Annotation:
    """Table-row statistics: how many of the influencer's actions satisfy the
    action predicates, how many active followers satisfy the user predicates,
    and the explanation's raw followup coverage.

    The two entity counts are independent of each other and of which cells
    the explanation actually covers. An entity satisfies the predicates when
    their catalog ids are a subset of its id-set, so entities are counted
    once per class: per distinct id-set in the index's `action_classes` and
    `user_classes`, weighted by how many entities hold it.
    """
    split = index.catalog.n_action_keys
    gids = [index.key_ids[pid] for pid in explanation.predicates]
    actions = _holders(frozenset(g for g in gids if g < split), index.action_classes)
    followers = _holders(frozenset(g for g in gids if g >= split), index.user_classes)
    return Annotation(actions, followers, explanation.raw_coverage)


def _holders(need: frozenset[int], classes: Mapping[frozenset[int], int]) -> int:
    """How many entities of `classes` (id-set -> entities) hold every id in `need`."""
    return sum(count for ids, count in classes.items() if need <= ids)


def explanation_set_doc(eset: ExplanationSet, index: PredicateIndex) -> dict:
    """JSON-ready description of a mined explanation set."""
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


# `explanation_set_doc`'s schema as `json.dumps(_, indent=2)` lays it out.
_PREDICATE = '        {\n          "dimension": %s,\n          "attribute": %s,\n          "value": %s\n        }'
_ROW = '    {\n      "predicates": %s,\n      "actions": %r,\n      "followers": %r,\n      "followups": %r\n    }'
_HEAD = '{\n  "influencer": %r,\n  "total_followups": %r,\n  "explanations": %s,\n  "total_coverage": %r,\n  "relative_coverage": %r'


def _json_list(items: list[str], indent: str) -> str:
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def explanation_set_json(eset: ExplanationSet, index: PredicateIndex) -> bytes:
    """`json.dumps(explanation_set_doc(eset, index), indent=2) + "\\n"`,
    UTF-8 encoded, written straight from the schema: the same bytes without
    building the document. Strings go through `json`'s ASCII string
    encoder, and ints and `relative_coverage` through `repr`, as `json.dumps`
    writes them."""
    keys = index.predicates
    rows = []
    for expl in eset.explanations:
        note = annotate(expl, index)
        predicates = [_PREDICATE % tuple(map(encode_basestring_ascii, keys[pid])) for pid in expl.predicates]
        rows.append(_ROW % (_json_list(predicates, "      "), *note))
    text = _HEAD % (
        index.followup_set.influencer,
        index.n_cells,
        _json_list(rows, "  "),
        eset.total_coverage,
        eset.relative_coverage,
    )
    if eset.algorithm is not None:
        text += f',\n  "algorithm": {json.dumps(eset.algorithm)},\n  "seed": {json.dumps(eset.seed)}'
    if eset.truncated:
        text += ',\n  "truncated": true'
    return (text + "\n}\n").encode("utf-8")
