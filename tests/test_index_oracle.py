"""Differential test: the factorised index build and the memoised `annotate`
against the per-cell reference build and the table-scanning annotation."""
from __future__ import annotations

import random
from collections import Counter

from conftest import followup_set, reference_predicate_index, scan_annotation

from followups.featurization import (
    ACTION,
    TARGET_FOLLOWER,
    TARGET_INFLUENCER,
    USER,
    AttributeTable,
    BinSpec,
    build_predicate_index,
    default_bin_labels,
)
from followups.ingestion import Cell
from followups.miner import Explanation, annotate, covered_bits, mine_explanations

INSTANCES = 240


def random_bins(rng: random.Random, attribute: str) -> BinSpec:
    cuts = tuple(float(c) for c in sorted(rng.sample(range(1, 20), rng.randint(1, 3))))
    return BinSpec(attribute, cuts, default_bin_labels(cuts))


def fill_table(rng: random.Random, table: AttributeTable, entities, numeric: bool) -> None:
    """Random attributes for a random ~80% of `entities`: single- and
    multi-valued categorical attributes, plus one numeric attribute when
    `numeric` (integer values, so some fall exactly on a cut point)."""
    for i in range(rng.randint(0, 3)):
        card = rng.randint(1, 4)
        multi = rng.random() < 0.4
        for e in entities:
            if rng.random() < 0.8:
                table.add(e, f"c{i}", f"v{rng.randrange(card)}")
                if multi and rng.random() < 0.5:
                    table.add(e, f"c{i}", f"v{rng.randrange(card)}")
    if numeric:
        for e in entities:
            if rng.random() < 0.8:
                table.add(e, "n", str(rng.randint(0, 20)))


def random_index_inputs(rng: random.Random):
    """A followup set with its attribute tables, bins and target.

    Tables cover only some of the set's entities and also hold entities
    outside it. Cells are numbered in (action, follower) order, as
    `compute_followup_set` numbers them; the shuffle they sometimes get is
    sorted back by `followup_set`, and kept so that later draws stay as
    they were. Some sets are empty.
    """
    influencer = 1
    followers = list(range(2, 2 + rng.randint(1, 12)))
    actions = [f"a{i:02d}" for i in range(rng.randint(1, 15))]
    density = rng.uniform(0.1, 0.9)
    cells = [Cell(a, v) for a in actions for v in followers if rng.random() < density]
    if rng.random() < 0.08:
        cells = []
    elif rng.random() < 0.2:
        rng.shuffle(cells)
    fset = followup_set(influencer, cells, actions)

    user_numeric, action_numeric = rng.random() < 0.5, rng.random() < 0.5
    user_attrs = AttributeTable(USER, numeric=("n",) if user_numeric else ())
    action_attrs = AttributeTable(ACTION, numeric=("n",) if action_numeric else ())
    fill_table(rng, user_attrs, [influencer, *followers, 99], user_numeric)
    fill_table(rng, action_attrs, [*actions, "zz"], action_numeric)
    bins = [random_bins(rng, "n")] if user_numeric or action_numeric else []
    target = rng.choice((TARGET_FOLLOWER, TARGET_INFLUENCER))
    return fset, user_attrs, action_attrs, bins, target


def features(fset, user_attrs, action_attrs, bins, target, postings, catalog) -> set[str]:
    """Which of the cases the differential test must cover this instance hits."""
    seen = {target}
    if not fset.cells:
        seen.add("empty")
    if bins:
        seen.add("binned")
    for table in (user_attrs, action_attrs):
        if any(len(table.values(e, a)) > 1 for e in table.entities() for a in table.attributes_of(e)):
            seen.add("multi-valued")
    entities = {c.follower for c in fset.cells} | {c.action for c in fset.cells}
    if entities - set(user_attrs.entities()) - set(action_attrs.entities()):
        seen.add("missing-entity")
    for key, posting in zip(catalog, postings):
        if key[0] == ACTION and posting and posting[-1] - posting[0] + 1 > len(posting):
            seen.add("non-adjacent-runs")
    return seen


def test_factorised_index_and_annotate_match_per_cell_oracles():
    covered = Counter()
    for i in range(INSTANCES):
        rng = random.Random(91_000 + i)
        fset, user_attrs, action_attrs, bins, target = random_index_inputs(rng)
        index = build_predicate_index(fset, user_attrs, action_attrs, bins, target)
        catalog, postings = reference_predicate_index(fset, user_attrs, action_attrs, bins, target)
        covered.update(features(fset, user_attrs, action_attrs, bins, target, postings, catalog))

        assert [(p.dimension, p.attribute, p.value) for p in index.predicates] == catalog, i
        assert [index.pid_of(*p) for p in index.predicates] == list(range(len(catalog)))
        assert index.n_cells == len(fset.cells)
        assert list(index.bits) == [sum(1 << c for c in posting) for posting in postings], i

        explanations = list(mine_explanations(index, rng.randint(1, 4), rng.randint(1, 3)).explanations)
        for _ in range(5):
            pids = tuple(rng.sample(range(index.n_predicates), min(rng.randint(1, 3), index.n_predicates)))
            bits = covered_bits(index, pids)
            explanations.append(Explanation(pids, bits, bits.bit_count(), 0))
        for expl in explanations:
            assert annotate(expl, index) == scan_annotation(expl, index), (i, expl)

    for case in (TARGET_FOLLOWER, TARGET_INFLUENCER, "empty", "binned", "multi-valued",
                 "missing-entity", "non-adjacent-runs"):
        assert covered[case] >= 5, (case, covered)
