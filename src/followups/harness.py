"""Experiment harness: end-to-end pipeline, parameter sweeps with median
aggregation, explanation-table rendering, and timing comparison.

All default outputs are pure functions of the input files, configuration and
seed; wall-clock measurements are only written when explicitly requested.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from . import baselines, miner
from .errors import ConfigError, FollowupsError, ParseError, ResourceLimitError
from .featurization import (
    ACTION,
    TARGET_FOLLOWER,
    USER,
    AttributeTable,
    BinSpec,
    PredicateCatalog,
    PredicateIndex,
    bin_numeric_attribute,
    bins_from_json,
    bins_to_json,
    build_predicate_index,
    load_attribute_table,
)
from .ingestion import (
    ActionLog,
    FollowupStats,
    SocialGraph,
    compute_followup_set,  # the reference for `followup_sets`; perfbench/ reads it from here
    followup_histogram,
    followup_sets,
    global_followup_stats,
    influencer_followup_counts,
    parse_action_log,
    parse_social_graph,
    rank_influencers,
)

# Each sequential algorithm by name, as the factory `(index, l, seed,
# node_budget)` of its explanation stream: the stream's first k explanations
# are the algorithm's run at k. The oracle has no stream, since its best
# k-set need not extend its best (k-1)-set. Each entry looks its function up
# in its module when called, so a wrapper set on the module is the one run.
_STREAMS = {
    "greedy": lambda index, l, seed, budget: miner.greedy_explanations(index, l),
    "eager": lambda index, l, seed, budget: miner.eager_explanations(index, l),
    "random": lambda index, l, seed, budget: baselines.random_explanations(index, l, seed),
    "most-popular": lambda index, l, seed, budget: baselines.most_popular_explanations(index, l),
    "exhaustive": lambda index, l, seed, budget: baselines.exhaustive_explanations(index, l, budget),
}
ALGORITHMS = (*_STREAMS, "oracle")


@dataclass
class RunConfig:
    """One run's options. The CLI's defaults are these fields' defaults,
    and `validate` is the one check of their domains."""

    graph: Path
    actions: Path
    user_attrs: Path | None = None
    action_attrs: Path | None = None
    bins: Path | None = None
    nbins: int = 3
    algo: str = "greedy"
    k: int = 6
    l: int = 3
    top_n: int = 100
    seed: int = 0
    max_delay: int | None = None
    target: str = TARGET_FOLLOWER
    out_dir: Path | None = None
    node_budget: int = baselines.DEFAULT_NODE_BUDGET

    def validate(self) -> None:
        if self.k < 1 or self.l < 1 or self.top_n < 1:
            raise ConfigError("k, l and top_n must all be >= 1")
        if self.k > sys.maxsize:
            raise ConfigError(f"k must be <= {sys.maxsize}, got {self.k}")
        if self.nbins < 1:
            raise ConfigError(f"nbins must be >= 1, got {self.nbins}")
        if self.node_budget < 1:
            raise ConfigError(f"node budget must be >= 1, got {self.node_budget}")
        if self.max_delay is not None and self.max_delay < 1:
            # DAG arcs join strictly later performances, so such a delay would drop every arc
            raise ConfigError(f"max_delay must be >= 1, got {self.max_delay}")
        if self.algo not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algo!r}")
        if self.algo == "random":
            require_random_draws(self.k, self.l, self.node_budget)
        for path in (self.graph, self.actions, self.user_attrs, self.action_attrs, self.bins):
            if path is not None and not Path(path).exists():
                raise ConfigError(f"input file not found: {path}")


def require_random_draws(k: int, l: int, node_budget: int) -> None:
    """Refuse a random-baseline run of k explanations of l predicates each
    whose k * l weighted draws exceed `node_budget`: a ResourceLimitError,
    raised before the first draw. Its stream is endless, so nothing else
    bounds its work."""
    if k * l > node_budget:
        raise ResourceLimitError(f"random baseline would make k * l = {k * l} draws, over node budget {node_budget}")


def median(values: Sequence[float]):
    """Lower median: the rank-ceil(n/2) order statistic."""
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def _parse_file(path: str | Path, parse, *args):
    """`parse(lines, *args)` over a UTF-8 text file; a ParseError names the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return parse(fh, *args)
        except ParseError as exc:
            raise ParseError(f"{path}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def load_graph(path: str | Path) -> SocialGraph:
    return _parse_file(path, parse_social_graph)


def load_log(path: str | Path) -> ActionLog:
    return _parse_file(path, parse_action_log)


def load_table(path: str | Path | None, dimension: str) -> AttributeTable:
    if path is None:
        return AttributeTable(dimension)
    return _parse_file(path, load_attribute_table, dimension)


def prepare_bins(
    user_attrs: AttributeTable,
    action_attrs: AttributeTable,
    stats: FollowupStats,
    nbins: int,
) -> list[BinSpec]:
    """Equi-depth bin specs for every declared numeric attribute, weighted by
    global followup mass (cells carried by each entity). nbins is clamped to
    the number of distinct values so sparse attributes stay usable. A
    declared numeric attribute with no values is a ConfigError."""
    specs = []
    for table, weights in ((action_attrs, stats.action_cells), (user_attrs, stats.follower_cells)):
        for attribute in sorted(table.numeric):
            values = [
                (entity, table.numeric_value(entity, attribute))
                for entity in table.entities()
                if table.numeric_value(entity, attribute) is not None
            ]
            if not values:
                raise ConfigError(f"numeric attribute {attribute!r} of the {table.dimension} table has no values")
            distinct = len({v for _, v in values})
            specs.append(bin_numeric_attribute(attribute, values, weights, min(nbins, distinct)))
    return specs


def run_algorithm(
    algo: str,
    index: PredicateIndex,
    k: int,
    l: int,
    seed: int = 0,
    node_budget: int = baselines.DEFAULT_NODE_BUDGET,
) -> miner.ExplanationSet:
    if algo == "greedy":
        return miner.mine_explanations(index, k, l)
    if algo == "eager":
        return miner.eager_greedy(index, k, l)
    if algo == "random":
        return baselines.random_baseline(index, k, l, seed)
    if algo == "most-popular":
        return baselines.most_popular_baseline(index, k, l)
    if algo == "exhaustive":
        return baselines.exhaustive_baseline(index, k, l, node_budget)
    if algo == "oracle":
        return baselines.brute_force_oracle(index, k, l)[1]
    raise ConfigError(f"unknown algorithm {algo!r}")


@dataclass
class PipelineResult:
    summary_rows: list[dict]
    written: list[Path]


def _top_indexes(config: RunConfig) -> tuple[list[BinSpec], Iterator[tuple[int, int, PredicateIndex]]]:
    """Parse the inputs, make the one propagation pass and resolve the bins.

    Returns the bins and a lazy generator of (influencer, followups, index)
    over the top `config.top_n` influencers, so that a consumer which drops
    each index before the next keeps one alive at a time. Their followup sets
    come from one `followup_sets` pass, made when the first index is asked
    for: it walks the action log by action and reads the kept arcs.
    Every index shares one `PredicateCatalog`, built once the bins are known.
    """
    graph = load_graph(config.graph)
    log = load_log(config.actions)
    user_attrs = load_table(config.user_attrs, USER)
    action_attrs = load_table(config.action_attrs, ACTION)
    stats = global_followup_stats(graph, log, config.max_delay)
    if config.bins is None:
        bins = prepare_bins(user_attrs, action_attrs, stats, config.nbins)
    else:
        bins = _parse_file(config.bins, lambda fh: bins_from_json(fh.read()))
    catalog = PredicateCatalog(user_attrs, action_attrs, bins, config.target)
    ranked = rank_influencers(stats.influencer_counts, config.top_n)
    arcs = stats.arcs  # the generator keeps these alive, not the rest of the stats

    def indexes():
        fsets = followup_sets(log, [user for user, _ in ranked], arcs)
        for (user, count), fset in zip(ranked, fsets):
            yield user, count, build_predicate_index(fset, catalog)

    return bins, indexes()


def _require_indexes(indexes: Sequence[PredicateIndex]) -> None:
    """Mining and timing over no index has no median: a ConfigError."""
    if not indexes:
        raise ConfigError("no user has a followup, so there is nothing to sweep or time")


def _timed_run(config: RunConfig, algo: str, index: PredicateIndex, k: int, l: int) -> tuple[float, float]:
    """Relative coverage of `algo` on `index` at (k, l), and the wall-clock
    milliseconds of the mining call alone."""
    t0 = time.perf_counter()
    eset = run_algorithm(algo, index, k, l, config.seed, config.node_budget)
    return eset.relative_coverage, (time.perf_counter() - t0) * 1000.0


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Rank influencers, mine each with the configured algorithm, and write
    one explanation JSON per influencer plus a summary CSV.

    Partially written outputs are removed if any step fails.
    """
    config.validate()
    if config.out_dir is None:
        raise ConfigError("pipeline needs an output directory")
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        bins, indexes = _top_indexes(config)
        if config.bins is None:
            bins_path = out_dir / "bins.json"
            bins_path.write_text(bins_to_json(bins), encoding="utf-8")
            written.append(bins_path)
        summary_rows = []
        for rank, (user, count, index) in enumerate(indexes, start=1):
            eset = run_algorithm(config.algo, index, config.k, config.l, config.seed, config.node_budget)
            path = out_dir / f"explanations_{rank:03d}_user{user}.json"
            path.write_bytes(miner.explanation_set_json(eset, index))
            written.append(path)
            summary_rows.append(
                {
                    "rank": rank,
                    "influencer": user,
                    "followups": count,
                    "explanations": len(eset.explanations),
                    "total_coverage": eset.total_coverage,
                    "relative_coverage": eset.relative_coverage,
                }
            )
        summary_path = out_dir / "summary.csv"
        with summary_path.open("w", encoding="utf-8") as fh:
            fh.write("rank,influencer,followups,explanations,total_coverage,relative_coverage\n")
            for row in summary_rows:
                fh.write(
                    f"{row['rank']},{row['influencer']},{row['followups']},"
                    f"{row['explanations']},{row['total_coverage']},{row['relative_coverage']!r}\n"
                )
        written.append(summary_path)
        return PipelineResult(summary_rows, written)
    except Exception:
        for path in written:
            path.unlink(missing_ok=True)
        raise


@dataclass
class SweepPoint:
    value: int
    coverages: dict[str, list[float]]
    medians: dict[str, float]
    millis: dict[str, float]


@dataclass
class SweepResult:
    axis: str
    influencers: list[int]
    points: list[SweepPoint] = field(default_factory=list)


def _sweep_runs(
    config: RunConfig, axis: str, values: Sequence[int], algo: str, index: PredicateIndex
) -> Iterator[tuple[float, float]]:
    """(relative coverage, milliseconds) of `algo` on `index` at each value
    in turn; an error is raised at the first value whose run raises it.

    On axis k a sequential algorithm runs once, as a stream taken up to the
    largest value: its coverage at k is that of its first k explanations,
    and its time is the time until the k-th (or until the stream ended).
    Every other run is one mining call per value.
    """
    if axis == "l" or algo not in _STREAMS:
        for value in values:
            k, l = (value, config.l) if axis == "k" else (config.k, value)
            yield _timed_run(config, algo, index, k, l)
        return
    stream = _STREAMS[algo](index, config.l, config.seed, config.node_budget)
    prefix: list[miner.Explanation] = []
    millis = 0.0
    for k in values:
        t0 = time.perf_counter()
        prefix.extend(islice(stream, k - len(prefix)))
        millis += (time.perf_counter() - t0) * 1000.0
        yield miner.ExplanationSet(prefix, index.n_cells).relative_coverage, millis


def check_sweep_args(config: RunConfig, axis: str, values: Sequence[int], algos: Sequence[str]) -> None:
    """Raise the ConfigError of `sweep`'s arguments, if any, before any
    input is read."""
    if axis not in ("k", "l"):
        raise ConfigError("sweep axis must be 'k' or 'l'")
    if not values or any(a >= b for a, b in zip(values, values[1:])):
        raise ConfigError("sweep values must be non-empty and strictly ascending")
    if values[0] < 1:
        raise ConfigError(f"sweep values must be >= 1, got {values[0]}")
    if axis == "k" and values[-1] > sys.maxsize:
        raise ConfigError(f"k must be <= {sys.maxsize}, got {values[-1]}")
    if not algos:
        raise ConfigError("sweep needs at least one algorithm")
    for algo in algos:
        if algo not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {algo!r}")
    if len(set(algos)) != len(algos):
        raise ConfigError(f"sweep algorithms must not repeat, got {','.join(algos)}")
    config.validate()


def sweep(
    config: RunConfig,
    axis: str,
    values: Sequence[int],
    algos: Sequence[str],
) -> SweepResult:
    """Run each algorithm over the top influencers for every axis value,
    recording per-influencer relative coverages, their median, and the median
    wall-clock milliseconds of mining.

    On axis k, a sequential algorithm (all but the oracle) runs once per
    influencer at the largest k, and its milliseconds at k are the time until
    its k-th explanation within that run. Otherwise they are the time of one
    mining call at that value.

    The result, or the error raised, is that of running every (value,
    algorithm, influencer) in that order: a failing run only stops the runs
    after it in that order.
    """
    check_sweep_args(config, axis, values, algos)
    top = list(_top_indexes(config)[1])
    indexes = [index for _, _, index in top]
    _require_indexes(indexes)
    # runs[algo][i][j]: (coverage, ms) of algo on index i at values[j]
    runs: dict[str, list[list[tuple[float, float]]]] = {algo: [] for algo in algos}
    failure: FollowupsError | None = None
    reached = len(values)  # the values every run must still reach
    for algo in algos:
        for index in indexes:
            row: list[tuple[float, float]] = []
            try:
                for run in _sweep_runs(config, axis, values[:reached], algo, index):
                    row.append(run)
            except FollowupsError as exc:
                # the per-value order stops here, so later runs need only the values before this one
                failure, reached = exc, len(row)
            runs[algo].append(row)
    if failure is not None:
        raise failure
    result = SweepResult(axis=axis, influencers=[user for user, _, _ in top])
    for j, value in enumerate(values):
        point = SweepPoint(value=value, coverages={}, medians={}, millis={})
        for algo in algos:
            covs = [row[j][0] for row in runs[algo]]
            point.coverages[algo] = covs
            point.medians[algo] = median(covs)
            point.millis[algo] = median([row[j][1] for row in runs[algo]])
        result.points.append(point)
    return result


def write_sweep_csv(result: SweepResult, out_dir: str | Path, timing_path: str | Path | None = None) -> list[Path]:
    """Persist raw per-influencer coverages and the gnuplot-ready median
    table. Wall-clock medians are only written when `timing_path` is given
    (they are not deterministic)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    algos = list(result.points[0].coverages) if result.points else []
    raw_path = out / "sweep_raw.csv"
    with raw_path.open("w", encoding="utf-8") as fh:
        fh.write(f"{result.axis},algorithm,influencer,relative_coverage\n")
        for point in result.points:
            for algo in algos:
                for user, cov in zip(result.influencers, point.coverages[algo]):
                    fh.write(f"{point.value},{algo},{user},{cov!r}\n")
    medians_path = out / "sweep_medians.csv"
    with medians_path.open("w", encoding="utf-8") as fh:
        fh.write(result.axis + "," + ",".join(algos) + "\n")
        for point in result.points:
            row = ",".join(repr(point.medians[algo]) for algo in algos)
            fh.write(f"{point.value},{row}\n")
    paths = [raw_path, medians_path]
    if timing_path is not None:
        tpath = Path(timing_path)
        with tpath.open("w", encoding="utf-8") as fh:
            fh.write(f"{result.axis},algorithm,median_ms\n")
            for point in result.points:
                for algo in algos:
                    fh.write(f"{point.value},{algo},{point.millis[algo]:.3f}\n")
        paths.append(tpath)
    return paths


def timing_report(
    config: RunConfig,
    algos: Sequence[str],
    indexes: Sequence[PredicateIndex] | None = None,
) -> list[tuple[str, int, int, float]]:
    """Median wall-clock milliseconds of the mining call per algorithm at the
    configured (k, l). Parsing and index construction are excluded."""
    if indexes is None:
        config.validate()
        indexes = [index for _, _, index in _top_indexes(config)[1]]
    _require_indexes(indexes)
    k, l = config.k, config.l
    return [(algo, k, l, median([_timed_run(config, algo, index, k, l)[1] for index in indexes])) for algo in algos]


def _predicate_display(pred: Mapping, display: Mapping[str, str] | None) -> str:
    if display and pred["attribute"] in display:
        return f"{display[pred['attribute']]}:{pred['value']}"
    return str(pred["value"])


def render_table(doc: Mapping, display: Mapping[str, str] | None = None) -> str:
    """Text table for one explanation-set JSON document.

    Consecutive rows sharing leading predicates render the shared cells once:
    each row's predicates are reordered to maximize the common prefix with
    the previous row, then the shared prefix is blanked.
    """
    if not doc.get("explanations"):
        raise ValueError("explanation set is empty")
    rows = []
    prev: list[tuple] = []
    width = max(len(e["predicates"]) for e in doc["explanations"])
    for expl in doc["explanations"]:
        preds = [(p["dimension"], p["attribute"], p["value"]) for p in expl["predicates"]]
        pred_set = set(preds)
        shared = 0
        while shared < len(prev) and shared < len(preds) and prev[shared] in pred_set:
            shared += 1
        ordered = list(prev[:shared]) + [p for p in preds if p not in prev[:shared]]
        by_key = {(p["dimension"], p["attribute"], p["value"]): p for p in expl["predicates"]}
        labels = ["" for _ in range(shared)] + [
            _predicate_display(by_key[p], display) for p in ordered[shared:]
        ]
        labels += [""] * (width - len(labels))
        rows.append((labels, expl["actions"], expl["followers"], expl["followups"]))
        prev = ordered
    headers = [""] * width + ["Actions", "Followers", "Followups"]
    table = [headers] + [
        labels + [str(a), str(f), str(c)] for labels, a, f, c in rows
    ]
    widths = [max(len(str(row[i])) for row in table) for i in range(len(headers))]
    lines = []
    for row in table:
        lines.append("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip())
    total = doc["total_followups"]
    pct = 100.0 * doc["total_coverage"] / total if total else 0.0
    lines.insert(0, f"Influencer {doc['influencer']} ({total} followups)")
    lines.append(f"Total Coverage: {pct:.1f}%")
    return "\n".join(lines) + "\n"


def histogram_csv(graph: SocialGraph, log: ActionLog, max_delay: int | None = None) -> str:
    rows = followup_histogram(graph, log, max_delay)
    return "followups,users\n" + "".join(f"{c},{n}\n" for c, n in rows)


def rank_csv(graph: SocialGraph, log: ActionLog, top_n: int, max_delay: int | None = None) -> str:
    rows = rank_influencers(influencer_followup_counts(graph, log, max_delay), top_n)
    return "rank,influencer,followups\n" + "".join(
        f"{i},{u},{c}\n" for i, (u, c) in enumerate(rows, start=1)
    )
