"""Attribute tables, equi-depth binning, and the inverted index."""
from __future__ import annotations

import io
import random
import time
from itertools import combinations

import pytest

from conftest import followup_set, postings_of, reference_bin_numeric_attribute, reference_predicate_index

from followups.errors import ConfigError, ParseError
from followups.featurization import (
    ACTION,
    TARGET_INFLUENCER,
    USER,
    AttributeTable,
    BinSpec,
    bin_numeric_attribute,
    bins_from_json,
    bins_to_json,
    build_predicate_index,
    default_bin_labels,
    load_attribute_table,
    predicate_popularity,
)
from followups.ingestion import Cell, FollowupSet


def table_of(text: str, dimension: str) -> AttributeTable:
    return load_attribute_table(io.StringIO(text), dimension)


# --- attribute tables ------------------------------------------------------

def test_load_table_numeric_header():
    t = table_of("#numeric: year\nm1\tgenre\tcomedy\nm1\tyear\t1995", ACTION)
    assert t.entities() == ("m1",)
    assert t.values("m1", "genre") == ("comedy",)
    assert t.numeric_value("m1", "year") == 1995.0


def test_load_table_duplicate_numeric_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        table_of("#numeric: year\nm1\tyear\t1995\nm1\tyear\t1996", ACTION)


def test_load_table_multivalued_kept():
    t = table_of("m1\tgenre\tcomedy\nm1\tgenre\tdrama", ACTION)
    assert t.values("m1", "genre") == ("comedy", "drama")


def test_load_table_non_numeric_value_rejected():
    with pytest.raises(ParseError, match="non-numeric"):
        table_of("#numeric: year\nm1\tyear\told", ACTION)


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-infinity", "1e999"])
def test_load_table_non_finite_value_rejected(value):
    with pytest.raises(ParseError, match=f"line 2: non-finite value '{value}'"):
        table_of(f"#numeric: year\nm1\tyear\t{value}", ACTION)
    with pytest.raises(ValueError, match="non-finite"):
        AttributeTable(USER, numeric=("age",)).add(1, "age", value)


def test_load_table_user_ids_are_integers():
    t = table_of("7\tgender\tmale", USER)
    assert t.values(7, "gender") == ("male",)
    with pytest.raises(ParseError, match="non-integer"):
        table_of("bob\tgender\tmale", USER)


def test_load_table_late_numeric_header_rejected():
    with pytest.raises(ParseError, match="precede"):
        table_of("m1\tyear\t1995\n#numeric: year", ACTION)


def test_load_table_empty_value_is_a_value():
    t = table_of("m1\tgenre\t\nm1\tgenre\tdrama\n", ACTION)
    assert t.values("m1", "genre") == ("", "drama")


def test_attribute_table_dimension_is_checked():
    with pytest.raises(ValueError, match="dimension must be one of"):
        AttributeTable("bogus")


# --- binning ---------------------------------------------------------------

def minimax_by_exhaustion(weights: list[float], nbins: int) -> float:
    """Best possible heaviest bin over every contiguous partition."""
    m = len(weights)
    best = float("inf")
    for cuts in combinations(range(1, m), nbins - 1):
        edges = (0,) + cuts + (m,)
        heaviest = max(sum(weights[a:b]) for a, b in zip(edges, edges[1:]))
        best = min(best, heaviest)
    return best


def test_bin_unit_weights_split_evenly():
    spec = bin_numeric_attribute("x", [(i, v) for i, v in enumerate([1, 2, 3, 4])], {i: 1 for i in range(4)}, 2)
    assert spec.boundaries == (2,)
    assert spec.bin_of(2) == 0  # boundary value falls in the lower bin
    assert spec.bin_of(2.5) == 1


def test_bin_labels_match_style():
    spec = bin_numeric_attribute("year", [(i, v) for i, v in enumerate([1990, 1997, 2000, 2005])], {i: 1 for i in range(4)}, 3)
    assert spec.labels[0].startswith("pre-")
    assert spec.labels[-1].endswith("+")


def test_bin_labels_keep_close_cuts_apart():
    """Cuts six significant digits cannot tell apart get exact labels, so
    each bin keeps its own predicate; short cuts keep their `:g` form."""
    values = [(i, 1_234_567_800 + 10 * i) for i in range(40)]
    spec = bin_numeric_attribute("t", values, {i: 1 for i in range(40)}, 4)
    assert spec.labels == (
        "pre-1234567890.0",
        "1234567890.0-1234567990.0",
        "1234567990.0-1234568090.0",
        "1234568090.0+",
    )
    assert default_bin_labels((1e-07, 18.0, 30.5)) == ("pre-1e-07", "1e-07-18", "18-30.5", "30.5+")


def test_bin_errors():
    with pytest.raises(ValueError):
        bin_numeric_attribute("x", [(0, 1.0)], {0: 1}, 2)
    with pytest.raises(ValueError):
        bin_numeric_attribute("x", [], {}, 1)
    with pytest.raises(ValueError):
        bin_numeric_attribute("x", [(0, 1.0)], {0: 1}, 0)


def test_bin_equal_values_share_a_bin():
    values = [(i, v) for i, v in enumerate([1, 1, 1, 2, 3])]
    spec = bin_numeric_attribute("x", values, {i: 1 for i in range(5)}, 2)
    assert spec.bin_of(1) == 0
    # all three 1s are on the same side of every boundary by construction
    assert spec.boundaries[0] >= 1


@pytest.mark.parametrize("seed", range(6))
def test_bin_minimax_matches_exhaustive_search(seed):
    rng = random.Random(seed)
    m = rng.randint(5, 12)
    values = sorted(rng.sample(range(100), m))
    weights = {i: rng.randint(1, 9) for i in range(m)}
    pairs = [(i, float(v)) for i, v in enumerate(values)]
    nbins = rng.randint(2, min(4, m))
    spec = bin_numeric_attribute("x", pairs, weights, nbins)
    # recompute the bin weights this binning induces
    bin_weights = [0.0] * (len(spec.boundaries) + 1)
    for i, v in pairs:
        bin_weights[spec.bin_of(v)] += weights[i]
    per_value = [float(weights[i]) for i in range(m)]
    assert max(bin_weights) == minimax_by_exhaustion(per_value, nbins)
    assert sum(bin_weights) == sum(per_value)  # conservation


def random_binning_instance(rng: random.Random):
    """Values with repeats (ints or floats), weights that may be floats,
    zero or tied, and any feasible bin count."""
    n = rng.randint(1, 80)
    span = rng.choice([3, 20, 1000])
    if rng.random() < 0.5:
        values = [(i, rng.randrange(span)) for i in range(n)]
    else:
        values = [(i, round(rng.uniform(0, span), rng.choice([0, 1, 3]))) for i in range(n)]
    if rng.random() < 0.5:
        weights = {i: rng.choice([0, 0, 1, 1, 2, 5, 40]) for i in range(n)}
    else:
        weights = {i: rng.choice([0.0, 0.1, 0.3, rng.uniform(0, 10)]) for i in range(n) if rng.random() < 0.9}
    distinct = len({float(v) for _, v in values})
    return values, weights, rng.randint(1, min(distinct, 7))


def test_bin_binary_search_equals_full_dp():
    for seed in range(1000):
        values, weights, nbins = random_binning_instance(random.Random(seed))
        got = bin_numeric_attribute("x", values, weights, nbins)
        want = reference_bin_numeric_attribute("x", values, weights, nbins)
        assert (got.boundaries, got.labels) == (want.boundaries, want.labels), f"seed {seed}"


def test_bin_many_distinct_values_is_fast():
    rng = random.Random(5)
    values = [(i, rng.random()) for i in range(5000)]
    weights = {i: rng.randint(0, 30) for i in range(5000)}
    t0 = time.perf_counter()
    spec = bin_numeric_attribute("x", values, weights, 3)
    assert time.perf_counter() - t0 < 2.0
    assert len(spec.boundaries) == 2


def test_bin_spec_json_roundtrip():
    spec = BinSpec("rating", (6.0, 7.0), ("pre-6", "6-7", "7+"))
    [back] = bins_from_json(bins_to_json([spec]))
    assert back == spec


def test_bin_spec_validation():
    with pytest.raises(ValueError):
        BinSpec("x", (2.0, 1.0), ("a", "b", "c"))
    for cut in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            BinSpec("x", (cut,), ("a", "b"))
    with pytest.raises(ParseError, match="finite"):
        bins_from_json('[{"attribute": "x", "boundaries": [1.0, NaN], "labels": ["a", "b", "c"]}]')
    with pytest.raises(ValueError):
        BinSpec("x", (1.0,), ("a",))
    with pytest.raises(ParseError, match="^bin spec for 'x': labels must be distinct$"):
        bins_from_json('[{"attribute": "x", "boundaries": [1.0, 2.0], "labels": ["a", "b", "a"]}]')


# --- predicate index --------------------------------------------------------

def small_fset() -> FollowupSet:
    return followup_set(1, [Cell("a", 2)], ["a"])


def test_index_single_cell_two_predicates():
    user_attrs = AttributeTable(USER)
    user_attrs.add(2, "gender", "male")
    action_attrs = AttributeTable(ACTION)
    action_attrs.add("a", "genre", "comedy")
    index = build_predicate_index(small_fset(), user_attrs, action_attrs)
    assert index.n_predicates == 2
    assert all(pl == (0,) for pl in postings_of(index))


def test_index_single_valued_attribute_partitions():
    fset = followup_set(1, [Cell("a", 2), Cell("a", 3)], ["a"])
    user_attrs = AttributeTable(USER)
    user_attrs.add(2, "gender", "male")
    user_attrs.add(3, "gender", "female")
    action_attrs = AttributeTable(ACTION)
    action_attrs.add("a", "genre", "comedy")
    index = build_predicate_index(fset, user_attrs, action_attrs)
    male = postings_of(index)[index.pid_of(USER, "gender", "male")]
    female = postings_of(index)[index.pid_of(USER, "gender", "female")]
    assert set(male).isdisjoint(female)
    assert sorted(male + female) == [0, 1]


def test_index_missing_attributes_and_empty_postings_dropped():
    fset = followup_set(1, [Cell("a", 2), Cell("b", 3)], ["a", "b"])
    user_attrs = AttributeTable(USER)  # nobody has attributes
    action_attrs = AttributeTable(ACTION)
    action_attrs.add("a", "genre", "comedy")
    action_attrs.add("zzz", "genre", "horror")  # entity outside the cells
    index = build_predicate_index(fset, user_attrs, action_attrs)
    assert [
        (p.dimension, p.attribute, p.value) for p in index.predicates
    ] == [(ACTION, "genre", "comedy")]


def test_index_requires_bins_for_numeric():
    action_attrs = AttributeTable(ACTION, numeric=("year",))
    action_attrs.add("a", "year", "1995")
    with pytest.raises(ConfigError, match="bin spec"):
        build_predicate_index(small_fset(), AttributeTable(USER), action_attrs)


def test_index_numeric_binning_applied():
    action_attrs = AttributeTable(ACTION, numeric=("year",))
    action_attrs.add("a", "year", "1995")
    spec = BinSpec("year", (1997.0,), ("pre-1997", "1997+"))
    index = build_predicate_index(small_fset(), AttributeTable(USER), action_attrs, [spec])
    assert index.predicates[0].value == "pre-1997"


def test_index_influencer_target():
    fset = followup_set(1, [Cell("a", 2)], ["a"])
    user_attrs = AttributeTable(USER)
    user_attrs.add(1, "gender", "female")
    user_attrs.add(2, "gender", "male")
    index = build_predicate_index(fset, user_attrs, AttributeTable(ACTION), target=TARGET_INFLUENCER)
    assert index.predicates[0].value == "female"


@pytest.mark.parametrize("seed", range(4))
def test_index_round_trip_and_scan_oracle(seed, rng):
    from conftest import random_attribute_instance

    index = random_attribute_instance(random.Random(seed), max_cells=10 * (seed + 2))
    postings = postings_of(index)
    catalog = index.catalog
    _, scanned = reference_predicate_index(
        index.followup_set, catalog.user_attrs, catalog.action_attrs, catalog.bins.values(), catalog.target
    )
    assert postings == scanned
    for pid, posting in enumerate(postings):
        assert posting  # empty postings never enter the catalog
        assert list(posting) == sorted(set(posting))
        assert index.bits[pid] >> index.n_cells == 0  # no bit beyond the last cell


def test_popularity_orders_by_size_then_id():
    fset = followup_set(1, [Cell("a", 2), Cell("b", 2)], ["a", "b"])
    action_attrs = AttributeTable(ACTION)
    action_attrs.add("a", "g", "x")
    action_attrs.add("b", "g", "x")
    action_attrs.add("a", "h", "y")
    action_attrs.add("b", "t", "z")
    index = build_predicate_index(fset, AttributeTable(USER), action_attrs)
    pop = predicate_popularity(index)
    assert pop[0][1] == 2
    sizes = [n for _, n in pop]
    assert sizes == sorted(sizes, reverse=True)
    for (p1, n1), (p2, n2) in zip(pop, pop[1:]):
        if n1 == n2:
            assert p1 < p2


def test_popularity_empty_index():
    index = build_predicate_index(small_fset(), AttributeTable(USER), AttributeTable(ACTION))
    assert predicate_popularity(index) == []
