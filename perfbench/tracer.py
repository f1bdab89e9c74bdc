"""Span tracer for one `followups` command, applied from outside the package.

Run as a script, it wraps the functions each module exposes to
`followups.harness` (plus `ingestion.build_propagation_graph`, which the
ingestion functions call through their module globals), runs the CLI
entry point in this process, and writes the spans it kept in memory to a
JSON file when the command ends:

    python3 perfbench/tracer.py --spans spans.json -- mine --graph ... --out out

A span is (metric, start, end, parent span, influencer). Spans of one
influencer share its id: a followup set carries it as an argument, an index
or explanation set through its followup set, and a DAG build inherits it
from its parent span. Times are the process's CPU time, user plus system
(`time.process_time()`), so that they add up to the process's own total.

`layer_metrics` turns such files into the per-layer metrics.
"""
from __future__ import annotations

import importlib
import json
import sys
import time

# (module, attribute, metric). The metric prefix is the layer.
WRAPS = (
    ("followups.harness", "parse_social_graph", "ingestion.parse_graph"),
    ("followups.harness", "parse_action_log", "ingestion.parse_log"),
    ("followups.harness", "global_followup_stats", "ingestion.global_stats"),
    ("followups.harness", "compute_followup_set", "ingestion.followup_set"),
    ("followups.ingestion", "build_propagation_graph", "ingestion.dag_build"),
    ("followups.harness", "load_attribute_table", "featurization.parse_attrs"),
    ("followups.harness", "bin_numeric_attribute", "featurization.bins"),
    ("followups.harness", "build_predicate_index", "featurization.index"),
    ("followups.miner", "mine_explanations", "miner.greedy"),
    ("followups.miner", "eager_greedy", "miner.eager"),
    ("followups.miner", "explanation_set_json", "miner.annotate_json"),
    ("followups.baselines", "exhaustive_baseline", "baselines.exhaustive"),
    ("followups.baselines", "most_popular_baseline", "baselines.most_popular"),
    ("followups.baselines", "random_baseline", "baselines.random"),
)

# Tail percentiles tried from the highest down; the tail is the first one
# with at least TAIL_BEYOND samples above it, or the median when there are
# too few samples for any.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def _influencer(metric: str, args: tuple):
    if metric == "ingestion.followup_set":
        return args[2] if len(args) > 2 else None
    for arg in args:
        who = getattr(getattr(arg, "followup_set", arg), "influencer", None)
        if isinstance(who, int):
            return who
    return None


class Recorder:
    """Spans and work counters, kept in memory until the command ends."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counters = {"featurization.predicates": 0, "featurization.bitset_bytes": 0, "featurization.index_cells": 0}

    def wrap(self, fn, metric: str):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            who = _influencer(metric, args)
            if who is None and parent >= 0:
                who = spans[parent][4]
            sid = len(spans)
            spans.append([metric, time.process_time(), None, parent, who])
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid][2] = time.process_time()
                stack.pop()
            if metric == "featurization.index":
                self._count_index(result)
            return result

        return traced

    def _count_index(self, index) -> None:
        # Bitset bytes are computed from the bit lengths, not measured memory.
        self.counters["featurization.predicates"] += len(index.predicates)
        self.counters["featurization.bitset_bytes"] += sum((b.bit_length() + 7) // 8 for b in index.bits)
        self.counters["featurization.index_cells"] += index.n_cells


def install() -> Recorder:
    """Wrap every function in WRAPS; exit loudly if one no longer exists."""
    recorder = Recorder()
    for module_name, attr, metric in WRAPS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if not callable(fn):
            raise SystemExit(f"perfbench: traced function {module_name}.{attr} no longer exists")
        setattr(module, attr, recorder.wrap(fn, metric))
    return recorder


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        raise SystemExit("usage: tracer.py --spans FILE -- <followups arguments>")
    spans_path, cli_args = argv[1], argv[3:]
    recorder = install()
    from followups import cli

    status = cli.main(cli_args)
    cpu_s = time.process_time()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"cpu_s": cpu_s, "spans": recorder.spans, "counters": recorder.counters}, fh)
    return status


def _percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def explain_percentiles(samples: list[float]) -> tuple[float, float, float]:
    """(p50, tail value, tail percentile); zeros when there are no samples."""
    if not samples:
        return 0.0, 0.0, 0.0
    ordered = sorted(samples)
    tail_pct = next(
        (p for p in TAIL_PERCENTILES if len(ordered) * (100.0 - p) / 100.0 >= TAIL_BEYOND), 50.0
    )
    return _percentile(ordered, 50.0), _percentile(ordered, tail_pct), tail_pct


def layer_metrics(docs: list[dict]) -> tuple[dict, float]:
    """Per-layer metrics, summed over the spans documents of traced runs.

    Self time is a span's duration minus that of its wrapped children.
    `harness.self_ms` is the rest of the process's CPU time up to the end of
    the command, so the self times of every metric in WRAPS plus
    `harness.self_ms` add up to `trace.run_ms`.
    Returns the metrics and the explain tail percentile.
    """
    self_ms = {metric: 0.0 for _, _, metric in WRAPS}
    calls = {metric: 0 for _, _, metric in WRAPS}
    counters = {}
    explain: list[float] = []
    run_ms = top_level_ms = 0.0
    for doc in docs:
        spans = doc["spans"]
        child_ms = [0.0] * len(spans)
        for metric, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_ms[parent] += (t1 - t0) * 1000.0
        per_influencer: dict[int, float] = {}
        for sid, (metric, t0, t1, parent, who) in enumerate(spans):
            duration = (t1 - t0) * 1000.0
            self_ms[metric] += duration - child_ms[sid]
            calls[metric] += 1
            if parent < 0:
                top_level_ms += duration
                if who is not None:
                    per_influencer[who] = per_influencer.get(who, 0.0) + duration
        explain += per_influencer.values()
        run_ms += doc["cpu_s"] * 1000.0
        for name, value in doc["counters"].items():
            counters[name] = counters.get(name, 0) + value
    p50, tail, tail_pct = explain_percentiles(explain)
    index_cells = counters["featurization.index_cells"]
    eager_ms = self_ms["miner.eager"]
    metrics = {f"{metric}_ms": ms for metric, ms in self_ms.items()}
    metrics.update(
        {
            "ingestion.dag_builds": calls["ingestion.dag_build"],
            "featurization.index_us_per_cell": self_ms["featurization.index"] * 1000.0 / index_cells if index_cells else 0.0,
            "featurization.predicates": counters["featurization.predicates"],
            "featurization.bitset_bytes": counters["featurization.bitset_bytes"],
            "miner.greedy_per_eager": self_ms["miner.greedy"] / eager_ms if calls["miner.eager"] else 0.0,
            "miner.calls": calls["miner.greedy"] + calls["miner.eager"],
            "harness.self_ms": run_ms - top_level_ms,
            "harness.explain_ms.p50": p50,
            "harness.explain_ms.tail": tail,
            "trace.run_ms": run_ms,
        }
    )
    return metrics, tail_pct


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
