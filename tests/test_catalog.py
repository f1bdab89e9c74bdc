"""The run-level predicate catalog: indexes built over one shared catalog
against the per-cell oracles, one key computation per entity per run, and
the benchmark's tracer still seeing every index build."""
from __future__ import annotations

import importlib
import importlib.util
import random
from collections import Counter
from pathlib import Path

import pytest
from conftest import followup_set, reference_predicate_index, scan_annotation
from test_index_oracle import fill_table, random_bins

from followups import harness
from followups.featurization import (
    ACTION,
    TARGET_FOLLOWER,
    TARGET_INFLUENCER,
    USER,
    AttributeTable,
    PredicateCatalog,
    build_predicate_index,
)
from followups.harness import RunConfig, run_pipeline, sweep
from followups.ingestion import Cell, FollowupSet
from followups.miner import Explanation, annotate, covered_bits, mine_explanations
from followups.synth import SynthConfig, write_dataset

RUNS = 10
SETS_PER_RUN = 24
BIG = 5000


def random_run(rng: random.Random, big: bool):
    """Attribute tables, bins and target shared by one run's followup sets.
    The tables cover ~80% of the users and actions and hold extra ones."""
    users = list(range(1, 1 + (120 if big else rng.randint(8, 120))))
    actions = [f"a{i:02d}" for i in range(60 if big else rng.randint(4, 60))]
    user_numeric, action_numeric = rng.random() < 0.5, rng.random() < 0.5
    user_attrs = AttributeTable(USER, numeric=("n",) if user_numeric else ())
    action_attrs = AttributeTable(ACTION, numeric=("n",) if action_numeric else ())
    fill_table(rng, user_attrs, [*users, 999], user_numeric)
    fill_table(rng, action_attrs, [*actions, "zz"], action_numeric)
    bins = [random_bins(rng, "n")] if user_numeric or action_numeric else []
    target = rng.choice((TARGET_FOLLOWER, TARGET_FOLLOWER, TARGET_INFLUENCER))
    return users, actions, user_attrs, action_attrs, bins, target


def random_fset(rng: random.Random, users, actions, big: bool) -> FollowupSet:
    """One influencer's followup set over the run's users and actions: empty
    now and then, and above BIG cells when `big`. The cells' occasional
    shuffle is sorted back by `followup_set`; it is kept so that later
    draws stay as they were."""
    influencer = rng.choice(users)
    if big:
        performed = list(actions)
        followers = rng.sample([u for u in users if u != influencer], BIG // len(actions) + 5)
        density = 1.0
    else:
        performed = rng.sample(actions, rng.randint(1, min(len(actions), 12)))
        followers = rng.sample([u for u in users if u != influencer], rng.randint(1, min(len(users) - 1, 15)))
        density = rng.uniform(0.1, 0.9) if rng.random() > 0.1 else 0.0
    cells = [Cell(a, v) for a in sorted(performed) for v in sorted(followers) if rng.random() < density]
    if rng.random() < 0.15:
        rng.shuffle(cells)
    return followup_set(influencer, cells, performed)


def test_shared_catalog_matches_per_cell_oracles():
    covered = Counter()
    for run in range(RUNS):
        rng = random.Random(93_000 + run)
        big = run % 2 == 0
        users, actions, user_attrs, action_attrs, bins, target = random_run(rng, big)
        catalog = PredicateCatalog(user_attrs, action_attrs, bins, target)
        pids_seen: dict[tuple, int] = {}
        for i in range(SETS_PER_RUN):
            fset = random_fset(rng, users, actions, big=big and i == 0)
            index = build_predicate_index(fset, catalog)
            keys, postings = reference_predicate_index(fset, user_attrs, action_attrs, bins, target)
            case = (run, i)

            assert [tuple(p) for p in index.predicates] == keys, case
            assert list(index.bits) == [sum(1 << c for c in posting) for posting in postings], case
            assert [index.pid_of(*key) for key in keys] == list(range(len(keys))), case
            absent = [p for p in catalog.predicates if tuple(p) not in set(keys)]
            if absent:
                with pytest.raises(KeyError):
                    index.pid_of(*rng.choice(absent))
            alone = build_predicate_index(fset, user_attrs, action_attrs, bins, target)
            assert (alone.predicates, alone.bits) == (index.predicates, index.bits), case

            explanations = list(mine_explanations(index, rng.randint(1, 4), rng.randint(1, 3)).explanations)
            for _ in range(3):
                pids = tuple(rng.sample(range(index.n_predicates), min(rng.randint(1, 3), index.n_predicates)))
                bits = covered_bits(index, pids)
                explanations.append(Explanation(pids, bits, bits.bit_count(), 0))
            for expl in explanations:
                assert annotate(expl, index) == scan_annotation(expl, index), (case, expl)

            covered[target] += 1
            covered["empty"] += not fset.cells
            covered["big"] += len(fset) > BIG and index.n_predicates >= 3
            moved = [key for pid, key in enumerate(keys) if pids_seen.setdefault(key, pid) != pid]
            covered["pid-differs-across-sets"] += bool(moved)

    for case in (TARGET_FOLLOWER, TARGET_INFLUENCER, "empty", "big", "pid-differs-across-sets"):
        assert covered[case] >= 5, (case, covered)


def test_catalog_rejects_what_the_index_build_rejected():
    tables = AttributeTable(USER), AttributeTable(ACTION)
    with pytest.raises(harness.ConfigError, match="mismatched"):
        PredicateCatalog(tables[1], tables[0])
    with pytest.raises(harness.ConfigError, match="target"):
        PredicateCatalog(*tables, target="nobody")
    with pytest.raises(harness.ConfigError, match="bin spec"):
        PredicateCatalog(AttributeTable(USER, numeric=("age",)), tables[1])
    with pytest.raises(TypeError):
        build_predicate_index(FollowupSet(1, [], []), PredicateCatalog(*tables), tables[1])


@pytest.fixture
def dataset_config(tmp_path) -> RunConfig:
    paths = write_dataset(SynthConfig(users=300, actions=120, seed=5, hubs=6), tmp_path / "ds")
    return RunConfig(
        graph=paths["graph"],
        actions=paths["actions"],
        user_attrs=paths["user_attrs"],
        action_attrs=paths["action_attrs"],
        k=3,
        l=2,
        top_n=100,
        out_dir=tmp_path / "out",
    )


def test_each_entity_keys_computed_once_per_run(dataset_config, monkeypatch):
    """Under `run_pipeline` and `sweep`, one catalog serves every index and
    computes each (dimension, entity)'s keys once."""
    for name, run in (
        ("run_pipeline", lambda: run_pipeline(dataset_config)),
        ("sweep", lambda: sweep(dataset_config, "k", [1, 2], ["greedy", "random"])),
    ):
        computed = Counter()
        catalogs = []
        entity_ids = PredicateCatalog._entity_ids
        init = PredicateCatalog.__init__

        def counted_ids(self, table, entity):
            computed[(table.dimension, entity)] += 1
            return entity_ids(self, table, entity)

        def counted_init(self, *args, **kwargs):
            catalogs.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PredicateCatalog, "_entity_ids", counted_ids)
        monkeypatch.setattr(PredicateCatalog, "__init__", counted_init)
        run()
        monkeypatch.undo()
        assert len(catalogs) == 1, name
        assert computed and max(computed.values()) == 1, (name, computed.most_common(3))
        assert {dimension for dimension, _ in computed} == {USER, ACTION}, name


def test_tracer_sees_every_index(dataset_config, monkeypatch):
    """perfbench's tracer, loaded by path and unedited, still wraps the index
    build the harness calls: one `featurization.index` span per ranked
    influencer, named by it, and as many index cells as followups."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    recorder = tracer.Recorder()
    for module_name, attr, metric in tracer.WRAPS:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, recorder.wrap(getattr(module, attr), metric))
    result = run_pipeline(dataset_config)

    ranked = [row["influencer"] for row in result.summary_rows]
    index_spans = [span for span in recorder.spans if span[0] == "featurization.index"]
    assert len(ranked) > 10
    assert [span[4] for span in index_spans] == ranked
    assert recorder.counters["featurization.index_cells"] == sum(row["followups"] for row in result.summary_rows)
    assert recorder.counters["featurization.predicates"] > 0
