"""The all-oracle pipeline against `run_pipeline`: equal explanation JSON
and `summary.csv` bytes on seeded small datasets and settings."""
from __future__ import annotations

import random
from collections import Counter

from conftest import reference_pipeline

from followups.featurization import TARGET_FOLLOWER, TARGET_INFLUENCER
from followups.harness import RunConfig, run_pipeline
from followups.synth import SynthConfig, write_dataset

INSTANCES = 50


def test_run_pipeline_equals_all_oracle_pipeline(tmp_path):
    covered = Counter()
    for i in range(INSTANCES):
        rng = random.Random(61_000 + i)
        synth = SynthConfig(users=rng.randint(30, 120), actions=rng.randint(8, 40), seed=i, hubs=rng.randint(1, 4))
        paths = write_dataset(synth, tmp_path / f"ds{i}")
        config = RunConfig(
            graph=paths["graph"],
            actions=paths["actions"],
            user_attrs=paths["user_attrs"],
            action_attrs=paths["action_attrs"],
            nbins=rng.randint(1, 4),
            algo=rng.choice(("greedy", "eager")),
            k=rng.randint(1, 4),
            l=rng.randint(1, 3),
            top_n=rng.randint(1, 12),
            max_delay=rng.choice((None, None, 5, 20)),
            target=rng.choice((TARGET_FOLLOWER, TARGET_FOLLOWER, TARGET_INFLUENCER)),
            out_dir=tmp_path / f"out{i}",
        )
        expected = reference_pipeline(config)
        result = run_pipeline(config)
        got = {path.name: path.read_bytes() for path in result.written if path.name != "bins.json"}
        assert got == expected, i
        covered["max-delay"] += config.max_delay is not None
        covered[config.target] += 1
        covered["several-influencers"] += len(expected) > 2
        covered["no-influencer"] += len(expected) == 1
    for case in ("max-delay", TARGET_FOLLOWER, TARGET_INFLUENCER, "several-influencers"):
        assert covered[case] >= 5, (case, covered)
