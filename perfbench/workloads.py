"""The four benchmark workloads: a synthetic dataset shape and the
`followups` command run on it.

Every `SynthConfig` field except the seed is written out here, so a change
to the generator's defaults cannot silently change what the benchmark
measures. `check_shape` fails loudly when the generator gains or loses a
field.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

# The generator's behaviour knobs at the time the benchmark was defined.
# Workloads override the size and skew fields below.
_BASE_SHAPE = dict(
    users=5000,
    actions=2000,
    hubs=22,
    genres=12,
    directors=45,
    writers=45,
    follower_base=0.03,
    follower_skew=0.4,
    activity_skew=0.25,
    background_follows=2,
    cascade_base=0.02,
    cascade_boost=0.55,
    multi_genre_p=0.2,
    genre_skew=0.25,
    taste_bias=3.0,
    max_hops=3,
    noise_performers=2,
)

K, L = 6, 3  # mine's -k and -l; sweep varies k and keeps -l
SWEEP_VALUES = (1, 2, 3, 4, 5, 6)
SWEEP_ALGOS = ("greedy", "eager", "most-popular", "random", "exhaustive")


@dataclass(frozen=True)
class Workload:
    name: str
    shape: dict
    command: str  # "mine", "sweep" or "rank"
    top: int
    datasets: int  # independently seeded datasets per benchmark run

    def nominal_ops(self) -> int:
        """Operations on one dataset: influencers explained (mine), mining
        calls (sweep) or runs (rank)."""
        if self.command == "mine":
            return self.top
        if self.command == "sweep":
            return self.top * len(SWEEP_VALUES) * len(SWEEP_ALGOS)
        return 1

    def cli_args(self, data: dict, out) -> list[str]:
        """Arguments of the `followups` command for this workload."""
        args = [self.command, "--graph", str(data["graph"]), "--actions", str(data["actions"])]
        if self.command == "rank":
            return args + ["--top", str(self.top), "--out", str(out / "rank.csv")]
        args += ["--user-attrs", str(data["user_attrs"]), "--action-attrs", str(data["action_attrs"])]
        if self.command == "sweep":
            args += [
                "--axis", "k",
                "--values", ",".join(map(str, SWEEP_VALUES)),
                "--algos", ",".join(SWEEP_ALGOS),
                "-l", str(L),
            ]
        else:
            args += ["-k", str(K), "-l", str(L)]
        return args + ["--top", str(self.top), "--out", str(out)]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mine-deep",
            {**_BASE_SHAPE, "users": 20000, "actions": 1200, "hubs": 40},
            "mine",
            40,
            4,
        ),
        Workload(
            "mine-wide",
            dict(_BASE_SHAPE),
            "mine",
            1000,
            4,
        ),
        Workload(
            "sweep-k",
            {**_BASE_SHAPE, "directors": 300, "writers": 300},
            "sweep",
            100,
            3,
        ),
        Workload(
            "rank-viral",
            {**_BASE_SHAPE, "users": 20000, "actions": 1000, "hubs": 40, "follower_base": 0.1},
            "rank",
            100,
            3,
        ),
    )
}


def check_shape(synth_config_cls) -> None:
    """Raise if `SynthConfig` no longer has exactly the fields set here."""
    fields = {f.name for f in dataclasses.fields(synth_config_cls)} - {"seed"}
    if fields != set(_BASE_SHAPE):
        raise SystemExit(
            "SynthConfig fields changed; update perfbench/workloads.py: "
            f"missing {sorted(fields - set(_BASE_SHAPE))}, gone {sorted(set(_BASE_SHAPE) - fields)}"
        )
