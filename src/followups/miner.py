"""Explanation mining: coverage functions, the lazy double greedy, an eager
reference greedy, and per-explanation annotation statistics.

An explanation is a conjunction of predicates; its cells are the intersection
of their cell bitsets. A set of explanations covers the union of their cells.
The miner greedily grows one explanation at a time, always appending the
predicate with the largest marginal gain over the cells not yet covered by
earlier explanations.

Marginals never increase as an explanation grows or as more cells get marked,
which lets a max-heap of cached marginals skip most recomputations. Each heap
entry carries the stamp at which its cached value was computed; each cell
carries a flag counting how many predicates of the in-progress explanation
cover it (offset by `iteration * l` so stamps never collide across
explanations). An entry popped with a current stamp is exact and can be
accepted without any recount.
"""
from __future__ import annotations

import heapq
import json
from typing import Iterable, NamedTuple

from .featurization import ACTION, USER, TARGET_FOLLOWER, PredicateIndex


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

    __slots__ = ("predicates", "covered_bits", "raw_coverage", "marginal_coverage", "_covered")

    def __init__(self, predicates: tuple[int, ...], covered_bits: int, raw_coverage: int, marginal_coverage: int):
        self.predicates = predicates
        self.covered_bits = covered_bits
        self.raw_coverage = raw_coverage
        self.marginal_coverage = marginal_coverage
        self._covered: tuple[int, ...] | None = None

    @property
    def covered(self) -> tuple[int, ...]:
        if self._covered is None:
            self._covered = _bit_indices(self.covered_bits)
        return self._covered

    def __repr__(self) -> str:
        return (
            f"Explanation(predicates={self.predicates}, raw={self.raw_coverage}, "
            f"marginal={self.marginal_coverage})"
        )


class ExplanationSet:
    """Up to k explanations with union-coverage bookkeeping."""

    def __init__(
        self,
        explanations: list[Explanation],
        marked_bits: int,
        total_coverage: int,
        relative_coverage: float,
        algorithm: str | None = None,
        seed: int | None = None,
        truncated: bool = False,
    ):
        self.explanations = explanations
        self.marked_bits = marked_bits
        self.total_coverage = total_coverage
        self.relative_coverage = relative_coverage
        self.algorithm = algorithm
        self.seed = seed
        self.truncated = truncated

    @property
    def marked(self) -> tuple[int, ...]:
        return _bit_indices(self.marked_bits)


class LazyHeapEntry(NamedTuple):
    """Heap node: cached marginal coverage for one predicate plus the stamp
    at which that value was computed.

    Stored as (-cov, pid, flag) so heapq's native tuple ordering puts the
    largest coverage first and breaks ties by ascending predicate id; the
    stamp can never influence the order because predicate ids are unique.
    """

    neg_cov: int
    pid: int
    flag: int

    @property
    def cov(self) -> int:
        return -self.neg_cov

    @classmethod
    def make(cls, pid: int, cov: int, flag: int) -> "LazyHeapEntry":
        return cls(-cov, pid, flag)


class CellState:
    """Per-cell mining state: the coverage-count flag and the marked bit.

    Flags are stored column-wise: `levels[j]` is the bitset of cells whose
    flag sits j above the current iteration's base stamp, i.e. cells covered
    by the first selected predicate and j-1 of the later ones. Cells whose
    flag is at or below the base (stale left-overs from earlier iterations)
    can never climb back to a counted level before the next reset, so they
    need no explicit storage. Marked cells never unmark; `unmarked_bits`
    mirrors the marked array as a bitset so posting recounts stay cheap.
    """

    def __init__(self, n_cells: int):
        self.n_cells = n_cells
        self.unmarked_bits = (1 << n_cells) - 1
        self.levels: list[int] = []

    def reset_levels(self, l: int) -> None:
        """Start a fresh explanation: every previous flag goes stale."""
        self.levels = [0] * (l + 1)

    def flag_level(self, cell: int) -> int:
        """How far above the iteration base this cell's flag sits (0 = stale)."""
        bit = 1 << cell
        for j in range(len(self.levels) - 1, 0, -1):
            if self.levels[j] & bit:
                return j
        return 0

    def mark(self, cell: int) -> None:
        self.unmarked_bits &= ~(1 << cell)

    def mark_bits(self, bits: int) -> None:
        self.unmarked_bits &= ~bits

    @property
    def marked(self) -> bytearray:
        out = bytearray(self.n_cells)
        for c in _bit_indices(((1 << self.n_cells) - 1) & ~self.unmarked_bits):
            out[c] = 1
        return out

    def marked_cells(self) -> tuple[int, ...]:
        return _bit_indices(((1 << self.n_cells) - 1) & ~self.unmarked_bits)


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


def _build_heap(index: PredicateIndex) -> list[LazyHeapEntry]:
    heap = [
        LazyHeapEntry.make(pid, index.bits[pid].bit_count(), 0)
        for pid in range(index.n_predicates)
    ]
    heapq.heapify(heap)
    return heap


def next_explanation(
    heap: list[LazyHeapEntry],
    cells: CellState,
    index: PredicateIndex,
    l: int,
    n_explanations: int,
) -> Explanation:
    """Greedily append `l` predicates to a fresh explanation.

    `heap` is this call's private copy (entries are consumed); `cells` is the
    shared mining state, whose newly covered cells get marked when the
    explanation completes. Entries must carry marginals no older than stamp
    `n_explanations * l`; the topmost entry is expected current.
    """
    base = n_explanations * l
    chosen: list[int] = []
    newly_marked = 0
    while heap and len(chosen) < l:
        entry = heapq.heappop(heap)
        need = base + len(chosen)
        if entry.flag < need:
            if not chosen:
                # Stamp-zero refresh: nothing constrains the cells yet except
                # marking, same recount the caller uses to settle its heap.
                cov = (index.bits[entry.pid] & cells.unmarked_bits).bit_count()
            else:
                cov = (
                    index.bits[entry.pid] & cells.levels[len(chosen)] & cells.unmarked_bits
                ).bit_count()
            heapq.heappush(heap, LazyHeapEntry.make(entry.pid, cov, need))
            continue
        chosen.append(entry.pid)
        depth = len(chosen)
        bits = index.bits[entry.pid]
        if depth == 1:
            cells.reset_levels(l)
            cells.levels[1] = bits
        else:
            # the flag of every cell on this predicate's posting climbs by one
            for j in range(depth - 1, 0, -1):
                moved = cells.levels[j] & bits
                cells.levels[j + 1] |= moved
                cells.levels[j] ^= moved
        if depth == l:
            # Cells whose flag reached base + l are covered by the whole
            # explanation; mark the unmarked ones as newly explained.
            newly = cells.levels[l] & cells.unmarked_bits
            newly_marked = newly.bit_count()
            cells.mark_bits(newly)
    inter = covered_bits(index, chosen)
    if 0 < len(chosen) < l:
        # Catalog exhausted before reaching length l: close out the truncated
        # explanation so its cells still count as explained.
        extra = inter & cells.unmarked_bits
        newly_marked = extra.bit_count()
        cells.mark_bits(extra)
    return Explanation(tuple(chosen), inter, inter.bit_count(), newly_marked)


def mine_explanations(index: PredicateIndex, k: int, l: int) -> ExplanationSet:
    """Lazy double greedy: up to `k` explanations of `l` predicates each.

    Stops early once no explanation can cover any unmarked cell; an empty
    catalog yields an empty set.
    """
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    heap = _build_heap(index)
    cells = CellState(index.n_cells)
    explanations: list[Explanation] = []
    while len(explanations) < k and heap:
        stamp = len(explanations) * l
        while heap[0].flag < stamp:
            entry = heapq.heappop(heap)
            cov = (index.bits[entry.pid] & cells.unmarked_bits).bit_count()
            heapq.heappush(heap, LazyHeapEntry.make(entry.pid, cov, stamp))
        if heap[0].neg_cov == 0:
            break
        # entries are immutable, so copying the heap is a shallow list copy
        expl = next_explanation(list(heap), cells, index, l, len(explanations))
        if expl.marginal_coverage == 0:
            break
        explanations.append(expl)
    return _finish(index, explanations)


def eager_greedy(index: PredicateIndex, k: int, l: int) -> ExplanationSet:
    """Reference greedy recomputing every predicate's marginal at every step.

    Kept deliberately independent of the heap machinery: it must produce
    results identical to `mine_explanations` under the shared tie-break
    (highest marginal, then lowest predicate id).
    """
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    unmarked = index.full_mask
    explanations: list[Explanation] = []
    while len(explanations) < k:
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
            break
        newly = inter & unmarked
        if not newly:
            break
        unmarked &= ~inter
        explanations.append(Explanation(tuple(chosen), inter, inter.bit_count(), newly.bit_count()))
    return _finish(index, explanations)


def _bit_indices(bits: int) -> tuple[int, ...]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


def _finish(index: PredicateIndex, explanations: list[Explanation]) -> ExplanationSet:
    union = 0
    for expl in explanations:
        union |= expl.covered_bits
    total = union.bit_count()
    return ExplanationSet(
        explanations,
        union,
        total,
        total / index.n_cells if index.n_cells else 0.0,
    )


def annotate(explanation: Explanation, index: PredicateIndex) -> Annotation:
    """Table-row statistics: how many of the influencer's actions satisfy the
    action predicates, how many active followers satisfy the user predicates,
    and the explanation's raw followup coverage.

    The two entity counts are independent of each other and of which cells
    the explanation actually covers. An entity satisfies the predicates when
    their keys are a subset of the keys the index build memoised for it.
    """
    fset = index.followup_set
    preds = [index.predicates[pid] for pid in explanation.predicates]
    action_need = frozenset(p[1:] for p in preds if p.dimension == ACTION)
    user_need = frozenset(p[1:] for p in preds if p.dimension == USER)
    action_keys = index.action_keys
    action_count = sum(1 for a in fset.actions_performed if action_need <= action_keys[a])
    if index.target == TARGET_FOLLOWER:
        user_keys = index.user_keys
        follower_count = sum(1 for v in fset.active_followers if user_need <= user_keys[v])
    else:
        ok = user_need <= index.user_keys[fset.influencer]
        follower_count = len(fset.active_followers) if ok else 0
    return Annotation(action_count, follower_count, explanation.raw_coverage)


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


def explanation_set_json(eset: ExplanationSet, index: PredicateIndex) -> bytes:
    return (json.dumps(explanation_set_doc(eset, index), indent=2) + "\n").encode("utf-8")
