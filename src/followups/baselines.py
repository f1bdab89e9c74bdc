"""Comparison algorithms: popularity-weighted random, most-popular packing,
per-iteration exhaustive search, and an exact brute-force optimum for tiny
instances.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_right
from itertools import accumulate, combinations
from typing import Iterable, Iterator

from .errors import ConfigError, ResourceLimitError
from .featurization import PredicateIndex, predicate_popularity
from .miner import Explanation, ExplanationSet, _first, covered_bits

DEFAULT_NODE_BUDGET = 5_000_000

ORACLE_MAX_PREDICATES = 12
ORACLE_MAX_K = 2
ORACLE_MAX_L = 3


def _make_explanation(index: PredicateIndex, pids: Iterable[int], unmarked: int) -> tuple[Explanation, int]:
    """Build an explanation record and the updated unmarked bitset."""
    pids = tuple(pids)
    inter = covered_bits(index, pids)
    newly = inter & unmarked
    expl = Explanation(pids, inter, inter.bit_count(), newly.bit_count())
    return expl, unmarked & ~inter


def _weighted_draws(rng: random.Random, pool: list[tuple[int, int]], count: int) -> list[int]:
    """`count` weighted draws without replacement from (pid, weight) pairs,
    with integer weights: each draw takes the first pair whose prefix sum of
    weights exceeds `rng.random()` times their total, or the last pair."""
    pids = [pid for pid, _ in pool]
    weights = [w for _, w in pool]
    picked = []
    for _ in range(count):
        prefix = list(accumulate(weights))
        chosen = min(bisect_right(prefix, rng.random() * prefix[-1]), len(prefix) - 1)
        del weights[chosen]
        picked.append(pids.pop(chosen))
    return picked


def random_explanations(index: PredicateIndex, l: int, seed: int) -> Iterator[Explanation]:
    """Endless stream of explanations of l distinct predicates each, drawn
    with probability proportional to their cell counts from one rng seeded
    with `seed`; the first k are `random_baseline` at k. A catalog smaller
    than l raises ConfigError on the first draw."""
    if index.n_predicates < l:
        raise ConfigError(f"catalog has {index.n_predicates} predicates, need at least l={l}")
    rng = random.Random(seed)
    weights = [(pid, index.bits[pid].bit_count()) for pid in range(index.n_predicates)]
    unmarked = index.full_mask
    while True:
        expl, unmarked = _make_explanation(index, _weighted_draws(rng, weights, l), unmarked)
        yield expl


def random_baseline(index: PredicateIndex, k: int, l: int, seed: int) -> ExplanationSet:
    """k explanations of l distinct predicates each, drawn with probability
    proportional to their cell counts. Fully determined by the seed."""
    return ExplanationSet(_first(random_explanations(index, l, seed), k, l), index.n_cells, "random", seed)


def most_popular_explanations(index: PredicateIndex, l: int) -> Iterator[Explanation]:
    """Predicates packed in popularity order: explanation i takes the next l
    most popular predicates not yet used. The stream ends with the catalog,
    so its last explanation may have fewer than l predicates."""
    order = [pid for pid, _ in predicate_popularity(index)]
    unmarked = index.full_mask
    for start in range(0, len(order), l):
        expl, unmarked = _make_explanation(index, order[start : start + l], unmarked)
        yield expl


def most_popular_baseline(index: PredicateIndex, k: int, l: int) -> ExplanationSet:
    """The first k explanations of `most_popular_explanations`. A catalog
    smaller than k*l truncates the tail and flags the output."""
    explanations = _first(most_popular_explanations(index, l), k, l)
    truncated = len(explanations) < k or any(len(e.predicates) < l for e in explanations)
    return ExplanationSet(explanations, index.n_cells, "most-popular", truncated=truncated)


def nominal_combination_count(index: PredicateIndex, l: int, unmarked: int | None = None) -> int:
    """Size of the unpruned search space for one exhaustive iteration."""
    if unmarked is None:
        unmarked = index.full_mask
    candidates = sum(1 for pid in range(index.n_predicates) if index.bits[pid] & unmarked)
    return math.comb(candidates, l)


def exhaustive_explanations(
    index: PredicateIndex, l: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> Iterator[Explanation]:
    """Per iteration, yield the l-predicate combination with the largest
    marginal coverage over unmarked cells; the first k are
    `exhaustive_baseline` at k.

    Enumeration is depth-first in ascending predicate id over predicates with
    non-empty unmarked postings; a branch is cut as soon as its running
    intersection cannot strictly beat the incumbent, which never changes the
    result because intersections only shrink. Ties go to the
    lexicographically least combination. The stream stops when fewer than l
    candidates remain or no combination covers an unmarked cell. Branches
    explored are counted across the whole stream; exceeding `node_budget`
    raises, so the search is never silently truncated.
    """
    unmarked = index.full_mask
    visited = 0
    while True:
        candidates = [pid for pid in range(index.n_predicates) if index.bits[pid] & unmarked]
        if len(candidates) < l:
            return
        best_combo: tuple[int, ...] | None = None
        best_cov = 0
        # stack of (candidate position, chosen prefix, intersection & unmarked)
        stack = [
            (i, (pid,), index.bits[pid] & unmarked)
            for i, pid in enumerate(candidates[: len(candidates) - l + 1])
        ]
        stack.reverse()
        while stack:
            pos, prefix, inter = stack.pop()
            visited += 1
            if visited > node_budget:
                raise ResourceLimitError(
                    f"exhaustive search exceeded node budget {node_budget}"
                )
            cov = inter.bit_count()
            if cov <= best_cov:
                continue
            if len(prefix) == l:
                best_cov = cov
                best_combo = prefix
                continue
            remaining = l - len(prefix)
            for j in range(len(candidates) - remaining, pos, -1):
                visited += 1
                child = inter & index.bits[candidates[j]]
                if child.bit_count() > best_cov:
                    stack.append((j, prefix + (candidates[j],), child))
        if best_combo is None:
            return
        expl, unmarked = _make_explanation(index, best_combo, unmarked)
        yield expl


def exhaustive_baseline(
    index: PredicateIndex, k: int, l: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> ExplanationSet:
    """The first k explanations of `exhaustive_explanations`: per iteration,
    the l-predicate combination with the largest marginal coverage."""
    return ExplanationSet(_first(exhaustive_explanations(index, l, node_budget), k, l), index.n_cells, "exhaustive")


def brute_force_oracle(
    index: PredicateIndex,
    k: int,
    l: int,
    max_predicates: int = ORACLE_MAX_PREDICATES,
    max_k: int = ORACLE_MAX_K,
    max_l: int = ORACLE_MAX_L,
) -> tuple[int, ExplanationSet]:
    """Exact optimum of union coverage over all sets of at most k
    explanations of at least l predicates each.

    Adding predicates to an explanation never grows its coverage, so only
    exactly-l conjunctions need enumerating. Guard rails keep the instance
    tiny; the witness is the lexicographically least optimum (shorter
    explanation lists first).
    """
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    if index.n_predicates > max_predicates or k > max_k or l > max_l:
        raise ResourceLimitError(
            f"oracle guard: needs predicates<={max_predicates}, k<={max_k}, l<={max_l} "
            f"(got {index.n_predicates}, {k}, {l})"
        )
    combos = list(combinations(range(index.n_predicates), l))
    combo_bits = [covered_bits(index, combo) for combo in combos]
    best_cov = 0
    best: tuple[tuple[int, ...], ...] = ()
    for size in range(1, min(k, len(combos)) + 1):
        for chosen in combinations(range(len(combos)), size):
            union = 0
            for idx in chosen:
                union |= combo_bits[idx]
            cov = union.bit_count()
            if cov > best_cov:
                best_cov = cov
                best = tuple(combos[idx] for idx in chosen)
    unmarked = index.full_mask
    explanations = []
    for combo in best:
        expl, unmarked = _make_explanation(index, combo, unmarked)
        explanations.append(expl)
    return best_cov, ExplanationSet(explanations, index.n_cells, "oracle")
