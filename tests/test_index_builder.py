"""Differential tests of the per-influencer output layers against their
earlier forms: the run-mask and class-code index build against the
byte-buffer build in `conftest`, `annotate` against the table scan, and the
fixed-schema JSON writer against `json.dumps` of the document that
`conftest` builds as a dict."""
from __future__ import annotations

import json
import random
import time

import pytest

from conftest import buffer_predicate_index, followup_set, reference_explanation_set_doc, scan_annotation

from followups import harness
from followups.featurization import (
    ACTION,
    TARGET_FOLLOWER,
    TARGET_INFLUENCER,
    USER,
    AttributeTable,
    BinSpec,
    PredicateCatalog,
    build_predicate_index,
    default_bin_labels,
)
from followups.ingestion import Cell, FollowupSet
from followups.miner import (
    Explanation,
    ExplanationSet,
    annotate,
    covered_bits,
    explanation_set_doc,
    explanation_set_json,
)

INSTANCES = 200
# More runs than a predicate may OR as masks before it gets a byte buffer.
MANY_RUNS = 300


def random_catalog_inputs(rng: random.Random, n_classes: int | None = None):
    """A followup set and a catalog of random tables over it.

    Sets are empty, small, or span `MANY_RUNS` actions, so that some action
    predicates lie on more runs than the mask limit. With `n_classes`, the
    set has exactly that many active followers, each with an id-set of its
    own: a unique `id` value, plus a shared `g` value that puts one user
    predicate into classes of several code groups.
    """
    influencer = 1
    many = n_classes is None and rng.random() < 0.15
    n_actions = MANY_RUNS if many else rng.randint(1, 15)
    n_followers = n_classes if n_classes is not None else rng.randint(1, 12)
    followers = list(range(2, 2 + n_followers))
    actions = [f"a{i:03d}" for i in range(n_actions)]
    if n_classes is not None:
        # every follower takes part, and each action has a few of them
        cells = [Cell(actions[i % n_actions], v) for i, v in enumerate(followers)]
        cells += [Cell(a, v) for a in actions for v in rng.sample(followers, min(3, n_followers))]
        cells = list(dict.fromkeys(cells))
    else:
        density = rng.uniform(0.1, 0.9)
        cells = [Cell(a, v) for a in actions for v in followers if rng.random() < density]
        if rng.random() < 0.08:
            cells = []
    fset = followup_set(influencer, cells, actions)

    user_attrs = AttributeTable(USER, numeric=("n",))
    action_attrs = AttributeTable(ACTION)
    for e in [influencer, *followers, followers[-1] + 1]:  # the last holds no cell
        if n_classes is not None:
            user_attrs.add(e, "id", f"v{e}")
            user_attrs.add(e, "g", f"g{e % 3}")
        elif rng.random() < 0.8:
            user_attrs.add(e, "c", f"v{rng.randrange(3)}")
            if rng.random() < 0.3:
                user_attrs.add(e, "c", f"v{rng.randrange(3)}")
        if rng.random() < 0.8:
            user_attrs.add(e, "n", str(rng.randint(0, 20)))
    for a in [*actions, "zz"]:
        if many or rng.random() < 0.9:
            action_attrs.add(a, "kind", "movie")  # on every run of a large set
        for i in range(rng.randint(0, 3)):
            action_attrs.add(a, f"c{i}", f"v{rng.randrange(4)}")
    cuts = tuple(float(c) for c in sorted(rng.sample(range(1, 20), rng.randint(1, 3))))
    bins = [BinSpec("n", cuts, default_bin_labels(cuts))]
    target = rng.choice((TARGET_FOLLOWER, TARGET_INFLUENCER)) if n_classes is None else TARGET_FOLLOWER
    return fset, PredicateCatalog(user_attrs, action_attrs, bins, target)


def random_explanations(rng: random.Random, index, n: int = 6) -> list[Explanation]:
    """Random conjunctions of up to 3 of the index's predicates, the empty
    one included."""
    explanations = []
    for _ in range(n):
        size = min(rng.randint(0, 3), index.n_predicates)
        pids = tuple(rng.sample(range(index.n_predicates), size))
        bits = covered_bits(index, pids)
        explanations.append(Explanation(pids, bits, bits.bit_count(), 0))
    return explanations


def check_index(fset, catalog, label) -> None:
    index = build_predicate_index(fset, catalog)
    oracle = buffer_predicate_index(fset, catalog)
    assert index.key_ids == oracle.key_ids, label
    assert index.bits == oracle.bits, label
    assert list(index.key_ids) == sorted(index.key_ids), label


def test_index_equals_byte_buffer_build():
    seen = set()
    for i in range(INSTANCES):
        rng = random.Random(31_000 + i)
        fset, catalog = random_catalog_inputs(rng)
        check_index(fset, catalog, i)
        seen.add(catalog.target)
        seen.add("empty" if not len(fset) else "many-runs" if len(fset.runs) >= MANY_RUNS else "small")
    assert seen == {TARGET_FOLLOWER, TARGET_INFLUENCER, "empty", "small", "many-runs"}


@pytest.mark.parametrize("n_classes", [1, 254, 255, 256, 257, 511, 640])
def test_index_equals_byte_buffer_build_at_class_counts(n_classes):
    """Around each 255-class code group boundary, and over several groups."""
    rng = random.Random(n_classes)
    fset, catalog = random_catalog_inputs(rng, n_classes)
    index = build_predicate_index(fset, catalog)
    assert len(index.user_classes) == n_classes
    check_index(fset, catalog, n_classes)
    for expl in random_explanations(rng, index, 20):
        assert annotate(expl, index) == scan_annotation(expl, index), (n_classes, expl)


def test_empty_set_index():
    for target in (TARGET_FOLLOWER, TARGET_INFLUENCER):
        user_attrs, action_attrs = AttributeTable(USER), AttributeTable(ACTION)
        user_attrs.add(1, "g", "x")
        action_attrs.add("a", "genre", "comedy")
        catalog = PredicateCatalog(user_attrs, action_attrs, (), target)
        fset = FollowupSet(1, [], ["a"])
        index = build_predicate_index(fset, catalog)
        assert (index.key_ids, index.bits) == ((), ())
        assert annotate(Explanation((), 0, 0, 0), index) == (1, 0, 0)


def test_annotate_equals_table_scan():
    for i in range(INSTANCES):
        rng = random.Random(32_000 + i)
        fset, catalog = random_catalog_inputs(rng)
        index = build_predicate_index(fset, catalog)
        for expl in random_explanations(rng, index):
            assert annotate(expl, index) == scan_annotation(expl, index), (i, catalog.target, expl)


def one_predicate_on_every_run(n_runs: int):
    """A set of `n_runs` runs of 10 cells, each action of the same kind."""
    actions = [f"a{i:06d}" for i in range(n_runs)]
    followers = tuple(range(2, 12))
    action_attrs = AttributeTable(ACTION)
    for a in actions:
        action_attrs.add(a, "kind", "movie")
    catalog = PredicateCatalog(AttributeTable(USER), action_attrs)
    fset = FollowupSet(1, [(a, followers) for a in actions], actions)
    build_predicate_index(fset, catalog)  # computes every entity's ids
    return fset, catalog


def best_build_seconds(fset, catalog, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        index = build_predicate_index(fset, catalog)
        best = min(best, time.perf_counter() - t0)
    assert index.bits == ((1 << len(fset)) - 1,)
    return best


def test_index_build_is_linear_in_runs():
    """One predicate on every run: 4x the runs must cost under 6x the time.
    A linear build reads ~4.5x; ORing every run's mask reads ~9x."""
    small = one_predicate_on_every_run(25_000)
    assert build_predicate_index(*small).bits == buffer_predicate_index(*small).bits
    large = one_predicate_on_every_run(100_000)
    assert best_build_seconds(*large) < 6 * best_build_seconds(*small)


CRAFTED_VALUES = [
    'say "hi"',
    "back\\slash",
    "tab\tnew\nline\r\x00\x01\x1f\x7f",
    "café déjà",
    "  ﻿",
    "emoji \U0001F600 clef \U0001D11E",
    "",
    "/slash/",
]


def crafted_index():
    """Every predicate value and attribute name is one of `CRAFTED_VALUES`."""
    actions = [f"a{i}" for i in range(len(CRAFTED_VALUES))]
    followers = list(range(2, 2 + len(CRAFTED_VALUES)))
    user_attrs, action_attrs = AttributeTable(USER), AttributeTable(ACTION)
    for i, value in enumerate(CRAFTED_VALUES):
        action_attrs.add(actions[i], value or "empty", value)
        action_attrs.add(actions[i], "all", "x")
        user_attrs.add(followers[i], "who", value)
    cells = [Cell(a, v) for i, a in enumerate(actions) for v in followers[: i + 1]]
    return build_predicate_index(followup_set(1, cells, actions), user_attrs, action_attrs)


def oracle_json(eset, index) -> bytes:
    return (json.dumps(reference_explanation_set_doc(eset, index), indent=2) + "\n").encode("utf-8")


def test_writer_equals_json_dumps_on_mined_sets():
    for i in range(60):
        rng = random.Random(33_000 + i)
        fset, catalog = random_catalog_inputs(rng)
        index = build_predicate_index(fset, catalog)
        for algo in ("greedy", "eager", "most-popular", "random", "exhaustive"):
            k, l = rng.randint(1, 4), rng.randint(1, 3)
            if algo == "random" and index.n_predicates < l or algo == "exhaustive" and index.n_predicates > 12:
                continue
            eset = harness.run_algorithm(algo, index, k, l, seed=i)
            assert explanation_set_json(eset, index) == oracle_json(eset, index), (i, algo)


def test_writer_equals_json_dumps_on_crafted_sets():
    index = crafted_index()
    full = index.full_mask
    rng = random.Random(7)
    mined = list(harness.run_algorithm("greedy", index, 4, 3, None).explanations)
    explanations = [
        *mined,
        *random_explanations(rng, index, 8),
        Explanation((), full, full.bit_count(), 0),  # no predicate at all
        Explanation((0,), index.bits[0], index.bits[0].bit_count(), 1),  # shorter than l
    ]
    assert any(len(e.predicates) == 3 for e in explanations)
    cases = [
        ExplanationSet([], index.n_cells),
        ExplanationSet([], 0),
        ExplanationSet(explanations, index.n_cells),
        ExplanationSet(explanations[:2], index.n_cells, algorithm="random", seed=None),
        ExplanationSet(explanations[:2], index.n_cells, algorithm="random", seed=12345678901234567890),
        ExplanationSet(explanations[:1], index.n_cells, algorithm="most-popular", truncated=True),
        ExplanationSet(explanations, 3 * index.n_cells, algorithm='q"u\\oéte', seed=-3, truncated=True),
    ]
    for case, eset in enumerate(cases):
        raw = explanation_set_json(eset, index)
        assert raw == oracle_json(eset, index), case
        assert explanation_set_doc(eset, index) == reference_explanation_set_doc(eset, index), case
    shown = {p.value for p in index.predicates}
    assert shown >= set(CRAFTED_VALUES)
