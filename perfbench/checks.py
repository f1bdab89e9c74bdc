"""Set-up timing and output checks for one dataset, in a fresh process.

    python3 perfbench/checks.py WORKLOAD DATA_DIR OUT_DIR RESULT_JSON

It loads the four input files through the harness loaders and times that
alone: one `setup_s` sample. It then verifies the output directory of the
workload's command on that dataset and records, per operation, whether it
passed:

- mine: one operation per influencer. The summary row and the JSON's
  `total_followups` equal the propagation-pass count, and for a fixed
  sample of ranks the eager reference reproduces the JSON bytes.
- sweep: one operation per mining call. Greedy and eager coverages are
  equal everywhere, and at every point the median coverage orders
  greedy >= most-popular >= random.
- rank: one operation per run. The ranking equals the propagation pass,
  and for a fixed sample of ranks the count equals the size of the
  influencer's followup set.
"""
from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

from followups import harness, miner
from followups.featurization import ACTION, USER

from workloads import K, L, SWEEP_ALGOS, SWEEP_VALUES, WORKLOADS

NBINS = 3  # the CLI's default --nbins


def load_inputs(data: Path):
    """The four inputs and the user CPU seconds their loading took."""
    t0 = resource.getrusage(resource.RUSAGE_SELF).ru_utime
    graph = harness.load_graph(data / "graph.tsv")
    log = harness.load_log(data / "actions.tsv")
    user_attrs = harness.load_table(data / "users.attrs.tsv", USER)
    action_attrs = harness.load_table(data / "actions.attrs.tsv", ACTION)
    return (graph, log, user_attrs, action_attrs), resource.getrusage(resource.RUSAGE_SELF).ru_utime - t0


def sample_ranks(n: int) -> list[int]:
    return sorted({1, (n + 1) // 2, n}) if n else []


def _read_csv(path: Path) -> list[list[str]]:
    if not path.is_file():
        return []
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def check_mine(inputs, stats, ranked, out: Path) -> list[bool]:
    graph, log, user_attrs, action_attrs = inputs
    bins_path = out / "bins.json"
    expected_bins = harness.bins_to_json(harness.prepare_bins(user_attrs, action_attrs, stats, NBINS))
    if not bins_path.is_file() or bins_path.read_text(encoding="utf-8") != expected_bins:
        return [False] * len(ranked)
    bins = harness.bins_from_json(expected_bins)
    rows = _read_csv(out / "summary.csv")
    ok = []
    for rank, (user, count) in enumerate(ranked, start=1):
        row = rows[rank - 1] if rank <= len(rows) else None
        path = out / f"explanations_{rank:03d}_user{user}.json"
        if row is None or row[:3] != [str(rank), str(user), str(count)] or not path.is_file():
            ok.append(False)
            continue
        raw = path.read_bytes()
        doc = json.loads(raw)
        passed = doc["influencer"] == user and doc["total_followups"] == count
        if passed and rank in sample_ranks(len(ranked)):
            fset = harness.compute_followup_set(graph, log, user)
            index = harness.build_predicate_index(fset, user_attrs, action_attrs, bins)
            passed = miner.explanation_set_json(miner.eager_greedy(index, K, L), index) == raw
        ok.append(passed)
    if len(rows) != len(ranked):
        ok = [False] * len(ranked)
    return ok


def check_sweep(ranked, out: Path) -> list[bool]:
    users = [user for user, _ in ranked]
    coverage = {}
    for value, algo, user, cov in _read_csv(out / "sweep_raw.csv"):
        coverage[(int(value), algo, int(user))] = float(cov)
    medians = {int(row[0]): dict(zip(SWEEP_ALGOS, map(float, row[1:]))) for row in _read_csv(out / "sweep_medians.csv")}
    ok = {(v, a, u): (v, a, u) in coverage for v in SWEEP_VALUES for a in SWEEP_ALGOS for u in users}
    for v in SWEEP_VALUES:
        for u in users:
            if coverage.get((v, "greedy", u)) != coverage.get((v, "eager", u)):
                ok[(v, "greedy", u)] = ok[(v, "eager", u)] = False
        med = medians.get(v, {})
        ordered = len(med) == len(SWEEP_ALGOS) and med["greedy"] >= med["most-popular"] >= med["random"]
        if ordered:
            ordered = all(
                med[a] == harness.median([coverage.get((v, a, u), -1.0) for u in users]) for a in SWEEP_ALGOS
            )
        if not ordered:
            for a in ("greedy", "most-popular", "random"):
                for u in users:
                    ok[(v, a, u)] = False
    if len(coverage) != len(ok):
        return [False] * len(ok)
    return list(ok.values())


def check_rank(inputs, ranked, out: Path) -> list[bool]:
    graph, log, _, _ = inputs
    rows = _read_csv(out / "rank.csv")
    passed = rows == [[str(r), str(u), str(c)] for r, (u, c) in enumerate(ranked, start=1)]
    for rank in sample_ranks(len(ranked)):
        user, count = ranked[rank - 1]
        passed = passed and len(harness.compute_followup_set(graph, log, user)) == count
    return [passed]


def check(workload_name: str, data: Path, out: Path) -> dict:
    workload = WORKLOADS[workload_name]
    inputs, setup_s = load_inputs(data)
    graph, log, _, _ = inputs
    stats = harness.global_followup_stats(graph, log)
    ranked = sorted(stats.influencer_counts.items(), key=lambda it: (-it[1], it[0]))
    top = ranked[: workload.top]
    top_cells = sum(count for _, count in top)
    if workload.command == "mine":
        ops, cells, work = check_mine(inputs, stats, top, out), top_cells, top_cells
    elif workload.command == "sweep":
        ops, cells = check_sweep(top, out), top_cells
        work = cells * len(SWEEP_VALUES) * len(SWEEP_ALGOS)
    else:
        cells = sum(stats.influencer_counts.values())
        ops, work = check_rank(inputs, top, out), cells
    return {
        "setup_s": setup_s,
        "ops": ops,
        "work_cells": work,
        "inputs": {
            "ingestion.log_rows": len(log),
            "ingestion.arcs": graph.n_arcs,
            "ingestion.actions": len(log.actions),
            "ingestion.max_performers": max(len(log.performers(a)) for a in log.actions),
            "ingestion.cells": cells,
        },
    }


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        raise SystemExit(__doc__)
    result = check(argv[0], Path(argv[1]), Path(argv[2]))
    Path(argv[3]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
