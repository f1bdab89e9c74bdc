"""Pipeline, sweep, rendering, and timing harness."""
from __future__ import annotations

import importlib
import importlib.util
import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from followups import baselines, harness, ingestion, miner
from followups.errors import ConfigError, ResourceLimitError
from followups.featurization import ACTION, USER, AttributeTable, build_predicate_index
from followups.harness import (
    RunConfig,
    median,
    render_table,
    run_pipeline,
    sweep,
    timing_report,
    write_sweep_csv,
)
from followups.ingestion import FollowupSet, compute_followup_set, global_followup_stats
from followups.miner import mine_explanations
from followups.synth import SynthConfig, write_dataset

CHAIN_GRAPH = "1\t2\n2\t3\n"
CHAIN_LOG = "1\ta\t1\n2\ta\t2\n3\ta\t3\n"
CHAIN_USER_ATTRS = "2\tgender\tmale\n3\tgender\tfemale\n"
CHAIN_ACTION_ATTRS = "a\tgenre\tcomedy\n"


def write_chain(tmp_path: Path) -> RunConfig:
    (tmp_path / "graph.tsv").write_text(CHAIN_GRAPH)
    (tmp_path / "actions.tsv").write_text(CHAIN_LOG)
    (tmp_path / "users.attrs.tsv").write_text(CHAIN_USER_ATTRS)
    (tmp_path / "actions.attrs.tsv").write_text(CHAIN_ACTION_ATTRS)
    return RunConfig(
        graph=tmp_path / "graph.tsv",
        actions=tmp_path / "actions.tsv",
        user_attrs=tmp_path / "users.attrs.tsv",
        action_attrs=tmp_path / "actions.attrs.tsv",
        out_dir=tmp_path / "out",
    )


def test_median_is_lower_median():
    assert median([3.0]) == 3.0
    assert median([4.0, 1.0]) == 1.0
    assert median([5.0, 1.0, 3.0]) == 3.0
    assert median([4.0, 2.0, 1.0, 3.0]) == 2.0


def test_median_of_nothing_is_value_error():
    with pytest.raises(ValueError, match="^median of empty sequence$"):
        median([])


def test_unknown_algorithm_is_config_error(tmp_path):
    config = write_chain(tmp_path)
    with pytest.raises(ConfigError, match="^unknown algorithm 'nope'$"):
        replace(config, algo="nope").validate()
    index = build_predicate_index(FollowupSet(1, [], []), AttributeTable(USER), AttributeTable(ACTION))
    with pytest.raises(ConfigError, match="^unknown algorithm 'nope'$"):
        harness.run_algorithm("nope", index, 1, 1)


def test_pipeline_without_output_directory_is_config_error(tmp_path):
    config = replace(write_chain(tmp_path), out_dir=None)
    with pytest.raises(ConfigError, match="^pipeline needs an output directory$"):
        run_pipeline(config)


def test_pipeline_chain_full_coverage(tmp_path):
    config = write_chain(tmp_path)
    config.algo = "greedy"
    config.k = 1
    config.l = 1
    config.top_n = 1
    result = run_pipeline(config)
    assert len(result.summary_rows) == 1
    assert result.summary_rows[0]["relative_coverage"] == 1.0
    [jpath] = [p for p in result.written if p.suffix == ".json" and "explanations" in p.name]
    doc = json.loads(jpath.read_text())
    assert doc["influencer"] == 1
    assert doc["relative_coverage"] == 1.0
    summary = (config.out_dir / "summary.csv").read_text()
    assert summary.splitlines()[0].startswith("rank,influencer")


def test_pipeline_empty_log_writes_empty_summary(tmp_path):
    config = write_chain(tmp_path)
    (tmp_path / "actions.tsv").write_text("")
    result = run_pipeline(config)
    assert result.summary_rows == []
    assert (config.out_dir / "summary.csv").read_text().count("\n") == 1


def test_pipeline_failure_removes_partial_outputs(tmp_path):
    paths = write_dataset(SynthConfig(users=150, actions=60, seed=2, hubs=5), tmp_path / "ds")
    config = RunConfig(
        graph=paths["graph"],
        actions=paths["actions"],
        user_attrs=paths["user_attrs"],
        action_attrs=paths["action_attrs"],
        algo="oracle",  # guard rails reject the big catalog mid-pipeline
        k=1,
        l=1,
        top_n=2,
        out_dir=tmp_path / "out",
    )
    with pytest.raises(ResourceLimitError):
        run_pipeline(config)
    assert list((tmp_path / "out").iterdir()) == []


def test_pipeline_matches_direct_library_calls(tmp_path):
    paths = write_dataset(SynthConfig(users=300, actions=120, seed=5, hubs=6), tmp_path / "ds")
    config = RunConfig(
        graph=paths["graph"],
        actions=paths["actions"],
        user_attrs=paths["user_attrs"],
        action_attrs=paths["action_attrs"],
        algo="greedy",
        k=3,
        l=2,
        top_n=5,
        out_dir=tmp_path / "out",
    )
    result = run_pipeline(config)

    graph = harness.load_graph(config.graph)
    log = harness.load_log(config.actions)
    stats = global_followup_stats(graph, log)
    user_attrs = harness.load_table(config.user_attrs, "user")
    action_attrs = harness.load_table(config.action_attrs, "action")
    bins = harness.prepare_bins(user_attrs, action_attrs, stats, config.nbins)
    ranked = sorted(stats.influencer_counts.items(), key=lambda it: (-it[1], it[0]))[:5]
    assert [row["influencer"] for row in result.summary_rows] == [u for u, _ in ranked]
    for row, (user, count) in zip(result.summary_rows, ranked):
        fset = compute_followup_set(graph, log, user)
        index = build_predicate_index(fset, user_attrs, action_attrs, bins)
        eset = mine_explanations(index, config.k, config.l)
        assert row["followups"] == count == len(fset)
        assert row["total_coverage"] == eset.total_coverage
        assert row["relative_coverage"] == eset.relative_coverage


def test_config_validation(tmp_path):
    config = write_chain(tmp_path)
    config.k = 0
    with pytest.raises(ConfigError):
        run_pipeline(config)
    config.k = 1
    config.graph = tmp_path / "missing.tsv"
    with pytest.raises(ConfigError):
        config.validate()


# --- sweep ---------------------------------------------------------------

def test_sweep_single_influencer_median_is_its_coverage(tmp_path):
    config = write_chain(tmp_path)
    config.top_n = 1
    config.l = 1
    result = sweep(config, "k", [1], ["greedy"])
    [point] = result.points
    assert point.medians["greedy"] == point.coverages["greedy"][0]


def test_sweep_oracle_monotone_in_k(tmp_path):
    config = write_chain(tmp_path)
    config.top_n = 2
    config.l = 1
    result = sweep(config, "k", [1, 2], ["oracle"])
    assert result.points[0].medians["oracle"] <= result.points[1].medians["oracle"]


def test_sweep_medians_recomputable_and_csv(tmp_path):
    paths = write_dataset(SynthConfig(users=200, actions=80, seed=9, hubs=5), tmp_path / "ds")
    config = RunConfig(
        graph=paths["graph"],
        actions=paths["actions"],
        user_attrs=paths["user_attrs"],
        action_attrs=paths["action_attrs"],
        k=6,
        l=2,
        top_n=4,
        out_dir=tmp_path / "out",
    )
    result = sweep(config, "k", [1, 2, 3], ["greedy", "most-popular"])
    for point in result.points:
        for algo, covs in point.coverages.items():
            assert point.medians[algo] == median(covs)
            assert all(0.0 <= c <= 1.0 for c in covs)
    files = write_sweep_csv(result, tmp_path / "out")
    assert [p.name for p in files] == ["sweep_raw.csv", "sweep_medians.csv"]
    raw = files[0].read_text().splitlines()
    assert raw[0] == "k,algorithm,influencer,relative_coverage"
    assert len(raw) == 1 + 3 * 2 * 4
    # raw rows reproduce the medians
    import collections

    per = collections.defaultdict(list)
    for line in raw[1:]:
        value, algo, _user, cov = line.split(",")
        per[(int(value), algo)].append(float(cov))
    for point in result.points:
        for algo in ("greedy", "most-popular"):
            assert median(per[(point.value, algo)]) == point.medians[algo]
    timing = write_sweep_csv(result, tmp_path / "out", tmp_path / "out" / "timings.csv")
    assert timing[-1].name == "timings.csv"


def test_sweep_rejects_bad_axis_values(tmp_path):
    config = write_chain(tmp_path)
    with pytest.raises(ConfigError):
        sweep(config, "x", [1], ["greedy"])
    with pytest.raises(ConfigError):
        sweep(config, "k", [2, 1], ["greedy"])
    with pytest.raises(ConfigError):
        sweep(config, "k", [1], ["nope"])


def test_timing_report_rows(tmp_path):
    config = write_chain(tmp_path)
    config.top_n = 1
    config.k = 1
    config.l = 1
    rows = timing_report(config, ["greedy", "most-popular"])
    assert [(r[0], r[1], r[2]) for r in rows] == [("greedy", 1, 1), ("most-popular", 1, 1)]
    assert all(r[3] >= 0.0 for r in rows)


@pytest.mark.parametrize("command", ["sweep", "timing_report"])
def test_nothing_to_time_is_config_error(tmp_path, command):
    config = write_chain(tmp_path)
    (tmp_path / "actions.tsv").write_text("")
    with pytest.raises(ConfigError, match="no user has a followup"):
        if command == "sweep":
            sweep(config, "k", [1], ["greedy"])
        else:
            timing_report(config, ["greedy"])


# --- the one driver, and what the benchmark's tracer wraps -------------------

def test_tracer_wraps_resolve_to_callables():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, attr, _metric in tracer.WRAPS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (module_name, attr)


def count_driver_calls(monkeypatch, out_dir: Path) -> list[tuple[str, int]]:
    """Wrap the propagation pass, the followup-set builders and the index
    builder of `harness` with recorders; each index event carries how many
    explanation files `out_dir` held when that index was built."""
    events = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            written = len(list(out_dir.glob("explanations_*.json")))
            events.append((name, written))
            return fn(*args, **kwargs)

        monkeypatch.setattr(harness, name, wrapper)

    for name in ("global_followup_stats", "followup_sets", "compute_followup_set", "build_predicate_index"):
        counted(name, getattr(harness, name))
    return events


@pytest.mark.parametrize("top_n", [1, 100])
def test_driver_one_pass_and_one_index_per_influencer(tmp_path, monkeypatch, top_n):
    config = write_chain(tmp_path)
    config.top_n = top_n
    expected = min(top_n, 2)  # users 1 and 2 have followups on the chain
    runs = {
        "run_pipeline": lambda: run_pipeline(config),
        "sweep": lambda: sweep(config, "k", [1, 2], ["greedy", "eager"]),
        "timing_report": lambda: timing_report(config, ["greedy", "most-popular"]),
    }
    for name, run in runs.items():
        events = count_driver_calls(monkeypatch, config.out_dir)
        run()
        names = [event for event, _ in events]
        assert names.count("global_followup_stats") == 1, name
        assert names.count("followup_sets") == 1, name
        assert names.count("compute_followup_set") == 0, name
        assert names.count("build_predicate_index") == expected, name
        if name == "run_pipeline":
            # streaming: index i is built once explanation files 0..i-1 are written
            assert [written for event, written in events if event == "build_predicate_index"] == list(range(expected))
        monkeypatch.undo()


def test_sweep_over_k_starts_each_stream_once_per_influencer(tmp_path, monkeypatch):
    """On axis k a sequential algorithm runs once per influencer, at the
    largest k; the oracle, which is not sequential, runs once per value."""
    config = write_chain(tmp_path)
    config.top_n = 2
    config.l = 1
    calls = Counter()

    def counted(module, name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in (
        (miner, "greedy_explanations"),
        (miner, "eager_explanations"),
        (baselines, "random_explanations"),
        (baselines, "most_popular_explanations"),
        (baselines, "exhaustive_explanations"),
    ):
        counted(module, name, getattr(module, name))
    oracle = baselines.brute_force_oracle
    # the chain's catalogs are tiny; only the guard on k is lifted
    counted(baselines, "brute_force_oracle", lambda index, k, l: oracle(index, k, l, max_k=6))
    values = [1, 2, 3, 4, 5, 6]
    result = sweep(config, "k", values, ["greedy", "eager", "random", "most-popular", "exhaustive", "oracle"])
    assert len(result.influencers) == 2
    assert calls == {
        "greedy_explanations": 2,
        "eager_explanations": 2,
        "random_explanations": 2,
        "most_popular_explanations": 2,
        "exhaustive_explanations": 2,
        "brute_force_oracle": 2 * len(values),
    }


def test_drivers_build_each_dag_once(tmp_path, monkeypatch):
    """The batch reads the arcs the propagation pass kept, so `run_pipeline`
    (at top 100 as well as top 20), `sweep` and `timing_report` each build
    every action's DAG exactly once."""
    paths = write_dataset(SynthConfig(users=300, actions=120, seed=5, hubs=6), tmp_path / "ds")
    config = RunConfig(
        graph=paths["graph"],
        actions=paths["actions"],
        user_attrs=paths["user_attrs"],
        action_attrs=paths["action_attrs"],
        top_n=20,
        out_dir=tmp_path / "out",
    )
    actions = list(harness.load_log(config.actions).actions)
    builds = []
    build = ingestion.build_propagation_graph

    def counted(graph, log, action, max_delay=None):
        builds.append(action)
        return build(graph, log, action, max_delay)

    monkeypatch.setattr(ingestion, "build_propagation_graph", counted)
    runs = {
        "run_pipeline": lambda: run_pipeline(config),
        "run_pipeline top 100": lambda: run_pipeline(replace(config, top_n=100)),
        "sweep": lambda: sweep(config, "k", [1, 2], ["greedy", "random"]),
        "timing_report": lambda: timing_report(config, ["greedy"]),
    }
    for name, run in runs.items():
        builds.clear()
        run()
        assert sorted(builds) == actions, name


def test_rank_builds_each_dag_once(tmp_path, monkeypatch):
    """`rank` makes one propagation pass: exactly one DAG build per action."""
    paths = write_dataset(SynthConfig(users=300, actions=120, seed=5, hubs=6), tmp_path / "ds")
    graph, log = harness.load_graph(paths["graph"]), harness.load_log(paths["actions"])
    builds = []
    build = ingestion.build_propagation_graph

    def counted(graph, log, action, max_delay=None):
        builds.append(action)
        return build(graph, log, action, max_delay)

    monkeypatch.setattr(ingestion, "build_propagation_graph", counted)
    harness.rank_csv(graph, log, 100)
    assert len(builds) == len(log.actions)
    assert sorted(builds) == list(log.actions)


def test_rank_and_histogram_count_influencers_only(tmp_path, monkeypatch):
    """`rank` and `histogram` read only influencer counts: they make no
    follower counts and never build the log's per-user index."""
    paths = write_dataset(SynthConfig(users=300, actions=120, seed=5, hubs=6), tmp_path / "ds")
    graph, log = harness.load_graph(paths["graph"]), harness.load_log(paths["actions"])
    counts = global_followup_stats(graph, log).influencer_counts
    ranked = sorted(counts.items(), key=lambda it: (-it[1], it[0]))[:100]
    histogram = sorted(Counter(counts.values()).items())

    def not_reached(*args, **kwargs):
        raise AssertionError("rank and histogram need influencer counts alone")

    monkeypatch.setattr(harness, "global_followup_stats", not_reached)
    monkeypatch.setattr(ingestion, "global_followup_stats", not_reached)
    monkeypatch.setattr(ingestion.ActionLog, "actions_of", not_reached)
    rank_rows = harness.rank_csv(graph, log, 100).splitlines()[1:]
    assert rank_rows == [f"{i},{u},{c}" for i, (u, c) in enumerate(ranked, start=1)]
    hist_rows = harness.histogram_csv(graph, log).splitlines()[1:]
    assert hist_rows == [f"{c},{n}" for c, n in histogram]


def test_mine_path_reads_the_log_by_action_only(tmp_path, monkeypatch):
    """`run_pipeline`, `sweep` and `timing_report` never ask the log for a
    user's actions, and give the same results as when they may."""
    paths = write_dataset(SynthConfig(users=300, actions=120, seed=5, hubs=6), tmp_path / "ds")
    config = RunConfig(
        graph=paths["graph"],
        actions=paths["actions"],
        user_attrs=paths["user_attrs"],
        action_attrs=paths["action_attrs"],
        top_n=100,
    )

    def results(out_dir):
        summary = run_pipeline(replace(config, out_dir=out_dir)).summary_rows
        files = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
        points = sweep(config, "k", [1, 2], ["greedy", "random"]).points
        coverages = [(point.value, point.coverages, point.medians) for point in points]
        timing = [row[:3] for row in timing_report(config, ["greedy"])]
        return summary, files, coverages, timing

    expected = results(tmp_path / "plain")

    def not_reached(*args, **kwargs):
        raise AssertionError("the mine path reads the action log by action only")

    monkeypatch.setattr(ingestion.ActionLog, "actions_of", not_reached)
    assert results(tmp_path / "guarded") == expected


# --- rendering ------------------------------------------------------------

def doc_with(rows, total=100, covered=60):
    return {
        "influencer": 9,
        "total_followups": total,
        "explanations": rows,
        "total_coverage": covered,
        "relative_coverage": covered / total,
    }


def row(preds, actions=3, followers=2, followups=10):
    return {
        "predicates": [
            {"dimension": d, "attribute": a, "value": v} for d, a, v in preds
        ],
        "actions": actions,
        "followers": followers,
        "followups": followups,
    }


def test_render_single_row_footer_percent():
    doc = doc_with([row([("action", "genre", "comedy")])], total=1000, covered=563)
    out = render_table(doc)
    assert "Total Coverage: 56.3%" in out
    assert "comedy" in out
    assert "Actions" in out and "Followers" in out and "Followups" in out


def test_render_groups_shared_predicates():
    shared = [("action", "genre", "thriller"), ("action", "maturity", "R")]
    doc = doc_with(
        [
            row(shared + [("user", "gender", "male")]),
            row([("user", "gender", "female")] + shared),
        ]
    )
    out = render_table(doc)
    assert out.count("thriller") == 1  # rendered once, blanked on the second row
    assert out.count("R ") + out.count("R\n") >= 1
    assert "male" in out and "female" in out


def test_render_display_prefixes():
    doc = doc_with([row([("action", "length", "long")])])
    out = render_table(doc, {"length": "len"})
    assert "len:long" in out


def test_render_empty_set_rejected():
    with pytest.raises(ValueError):
        render_table(doc_with([]))


def test_rank_and_histogram_csv(tmp_path):
    config = write_chain(tmp_path)
    graph = harness.load_graph(config.graph)
    log = harness.load_log(config.actions)
    assert harness.rank_csv(graph, log, 2) == "rank,influencer,followups\n1,1,2\n2,2,1\n"
    assert harness.histogram_csv(graph, log) == "followups,users\n1,1\n2,1\n"
