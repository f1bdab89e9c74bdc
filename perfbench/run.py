"""Benchmark of the `followups` CLI. See perfbench/README.md.

    python3 perfbench/run.py --workload mine-wide --seed 1 --seconds 8 --trace 0

Run from the root of a source checkout. It generates the workload's
datasets from the seed, runs the workload's command on each of them in
fresh single-threaded processes, one at a time, in rounds until `--seconds`
have passed, checks the outputs and prints one JSON object as the last line
of standard output: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
PROCESS_TIMEOUT_S = 150


@dataclass
class Sample:
    """One finished process: wall and user-mode CPU seconds, peak RSS and
    exit status, plus for a command run the digest and size of its outputs
    and its spans."""

    wall_s: float
    user_s: float
    rss_mb: float
    status: int
    digest: str = ""
    files: int = 0
    nbytes: int = 0
    spans: dict | None = None


def run_process(argv: list[str], log_path: Path) -> Sample:
    """Run one process to completion, killing it after PROCESS_TIMEOUT_S.

    `os.wait4` gives this child's own CPU time and peak RSS, which
    `getrusage` over all children would not.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall_s = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        print(f"perfbench: {Path(argv[1]).name} exited with {proc.returncode}:\n{tail}", file=sys.stderr)
    return Sample(wall_s, usage.ru_utime, usage.ru_maxrss / 1024.0, proc.returncode)


def sha256_file(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def record_outputs(sample: Sample, out: Path) -> None:
    """Digest (SHA-256 over relative names and contents), count and total
    size of every file under `out`."""
    digest = hashlib.sha256()
    files = sorted(p for p in out.rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(out)).encode() + b"\0")
        digest.update(sha256_file(path).encode() + b"\n")
    sample.digest, sample.files = digest.hexdigest(), len(files)
    sample.nbytes = sum(p.stat().st_size for p in files)


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and first and third quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def generate(workload, seed: int, work: Path) -> list[dict]:
    """Write the workload's datasets; dataset j uses generator seed
    seed * datasets + j, so different benchmark seeds never share one."""
    from followups.synth import SynthConfig, write_dataset

    import workloads

    workloads.check_shape(SynthConfig)
    datasets = []
    for j in range(workload.datasets):
        config = SynthConfig(seed=seed * workload.datasets + j, **workload.shape)
        paths = write_dataset(config, work / f"data{j}")
        for name in sorted(paths):
            print(f"input {j} {paths[name].name} sha256 {sha256_file(paths[name])}")
        datasets.append(paths)
    return datasets


def measure(workload, datasets: list[dict], work: Path, seconds: float, trace: bool):
    """Run rounds (the command once on every dataset) until `seconds` have
    passed, alternating untraced and traced rounds when tracing. Returns
    the untraced and traced rounds; the outputs of the first untraced round
    stay in `work / "out0-<j>"`."""
    untraced, traced = [], []
    began = time.monotonic()
    r = 0
    while time.monotonic() - began < seconds or not untraced or (trace and not traced):
        is_traced = trace and r % 2 == 1
        samples = []
        for j, paths in enumerate(datasets):
            out = work / f"out{r}-{j}"
            out.mkdir()
            cli_args = workload.cli_args(paths, out)
            spans = work / f"spans{r}-{j}.json"
            if is_traced:
                argv = [sys.executable, str(HERE / "tracer.py"), "--spans", str(spans), "--"] + cli_args
            else:
                argv = [sys.executable, "-m", "followups.cli"] + cli_args
            sample = run_process(argv, work / f"log{r}-{j}.txt")
            if is_traced and sample.status == 0:
                sample.spans = json.loads(spans.read_text(encoding="utf-8"))
            record_outputs(sample, out)
            if r > 0:
                shutil.rmtree(out)
            samples.append(sample)
        (traced if is_traced else untraced).append(samples)
        r += 1
    return untraced, traced


def run_check(workload, j: int, work: Path) -> dict | None:
    result = work / f"check{j}.json"
    argv = [sys.executable, str(HERE / "checks.py"), workload.name, str(work / f"data{j}"), str(work / f"out0-{j}"), str(result)]
    if run_process(argv, work / f"check{j}.txt").status != 0:
        return None
    return json.loads(result.read_text(encoding="utf-8"))


def print_metric(name: str, unit: str, values: list[float]) -> None:
    med, q1, q3 = summary(values)
    print(f"{name}: median {med:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still kills its child and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "followups" / "cli.py").is_file() or not spec_path.is_file():
        print("perfbench: run from the root of a followups checkout (src/followups and BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        t0 = time.monotonic()
        datasets = generate(workload, args.seed, work)
        t1 = time.monotonic()
        untraced, traced = measure(workload, datasets, work, args.seconds, bool(args.trace))
        t2 = time.monotonic()
        checks = [run_check(workload, j, work) for j in range(len(datasets))]
        print(f"phases: generate {t1 - t0:.1f} s, measure {t2 - t1:.1f} s, check {time.monotonic() - t2:.1f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    # Only the first round's outputs are checked in depth; every other
    # round's outputs must be byte-identical to them, dataset by dataset.
    references = [sample.digest for sample in untraced[0]]
    ops = [c["ops"] if c is not None else [False] * workload.nominal_ops() for c in checks]
    attempted = failed = 0
    for samples in untraced + traced:
        for j, sample in enumerate(samples):
            attempted += len(ops[j])
            bad = sample.status != 0 or sample.digest != references[j]
            failed += len(ops[j]) if bad else ops[j].count(False)
    print(f"output digest {hashlib.sha256(''.join(references).encode()).hexdigest()}")
    print(f"error_rate: {failed / attempted:.6g} ({failed} of {attempted} operations failed)")

    if any(c is None for c in checks):
        measured = {}
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    elif args.trace:
        measured, wanted = trace_metrics(untraced, traced, checks), spec["per_layer"]
        for entry in wanted:
            if entry["name"] in measured:
                print(f"{entry['name']}: {measured[entry['name']]:.6g} {entry['unit']}")
    else:
        measured, wanted = end_to_end_metrics(untraced, checks, spec["end_to_end"]), spec["end_to_end"]
    missing = [entry["name"] for entry in wanted if entry["name"] not in measured]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {e["name"]: {"value": measured[e["name"]], "unit": e["unit"]} for e in wanted},
    }
    print(json.dumps(result))
    return 0


def end_to_end_metrics(untraced: list[list[Sample]], checks: list[dict], wanted: list[dict]) -> dict:
    """Per round: the mean over datasets of user CPU time and peak RSS, and
    the cells of all datasets over their summed user CPU time. Reported: the
    median over rounds, and for set-up the median over the check processes'
    loads.

    Times are user-mode CPU seconds of the single-threaded process. On a
    shared virtual machine its wall time also carries the time other tenants
    held the CPU, and its system time the file system's work after earlier
    deletions; both change from minute to minute. Wall time is printed."""
    rounds = [samples for samples in untraced if all(s.status == 0 for s in samples)]
    work_cells = sum(c["work_cells"] for c in checks)
    values = {
        "run_s": [statistics.mean(s.user_s for s in samples) for samples in rounds],
        "setup_s": [c["setup_s"] for c in checks],
        "cells_per_s": [work_cells / sum(s.user_s for s in samples) for samples in rounds],
        "peak_rss_mb": [statistics.mean(s.rss_mb for s in samples) for samples in rounds],
    }
    for entry in wanted:
        if values.get(entry["name"]):
            print_metric(entry["name"], entry["unit"], values[entry["name"]])
    print_metric("wall_s (not a metric)", "s", [statistics.mean(s.wall_s for s in samples) for samples in rounds])
    return {name: summary(v)[0] for name, v in values.items() if v}


def trace_metrics(untraced: list[list[Sample]], traced: list[list[Sample]], checks: list[dict]) -> dict:
    """Per-layer metrics, summed over the datasets of the traced round with
    the median traced run time."""
    from tracer import WRAPS, layer_metrics

    rounds = sorted(
        (layer_metrics([s.spans for s in samples]) + (samples,)
         for samples in traced if all(s.status == 0 for s in samples)),
        key=lambda run: run[0]["trace.run_ms"],
    )
    plain = [sum(s.user_s for s in samples) for samples in untraced if all(s.status == 0 for s in samples)]
    if not rounds or not plain:
        return {}
    metrics, tail_pct, samples = rounds[(len(rounds) - 1) // 2]
    for name in checks[0]["inputs"]:
        values = [c["inputs"][name] for c in checks]
        metrics[name] = max(values) if name == "ingestion.max_performers" else sum(values)
    metrics["ingestion.dag_builds_per_action"] = metrics["ingestion.dag_builds"] / metrics["ingestion.actions"]
    metrics["harness.files_written"] = sum(s.files for s in samples)
    metrics["harness.bytes_written"] = sum(s.nbytes for s in samples)
    traced_s, plain_s = statistics.median(sum(s.user_s for s in samples) for _, _, samples in rounds), statistics.median(plain)
    metrics["trace.overhead_pct"] = (traced_s - plain_s) / plain_s * 100.0
    self_sum = sum(metrics[f"{metric}_ms"] for _, _, metric in WRAPS) + metrics["harness.self_ms"]
    tail = f"the p{tail_pct:g}" if tail_pct else "0: no influencer spans"
    print(f"harness.explain_ms.tail is {tail}; {len(rounds)} traced and {len(plain)} untraced round(s)")
    print(f"self times sum to {self_sum:.3f} ms of trace.run_ms {metrics['trace.run_ms']:.3f} ms")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
