"""The generator's output bytes are pinned, and its memory does not grow with
the number of actions: each row is written as it is drawn."""
from __future__ import annotations

import hashlib
import tracemalloc

import pytest

from followups.synth import SynthConfig, write_dataset

PINNED = [
    (
        SynthConfig(users=300, actions=120, seed=5, hubs=8),
        {
            "actions.attrs.tsv": "bb43259b3c13259be1ab3788240de5371c5da51865ef76645ce15d9403dbff21",
            "actions.tsv": "7f72a0bdb7576b2eeacdfe888896eccf4fdd321dc81f84516f67fe4a0bccad82",
            "graph.tsv": "bbd977531d4245734a8dcc35570df335042b547b92acedea5685dbbf1ca06495",
            "users.attrs.tsv": "2b434b89bdb87fb5e8f973d2b5a4c2cf2e14238d33e4d55d200e039631a8c0d7",
        },
    ),
    (
        SynthConfig(seed=7),
        {
            "actions.attrs.tsv": "e6b1ed3536ba8dd06d84cb7ea316ca9b31b0c4e39f1c4c47b9359733dc16578a",
            "actions.tsv": "d5f324531dd5b70bec3ffc8fe9f67a7fa5ee405b3a767cd7bec2cea1886e3978",
            "graph.tsv": "e80bcc15a2a1669bce7fda27980a0bbd0ce712be51c3dd5063e28aa7b886d7a3",
            "users.attrs.tsv": "52010bb3e64e56e41d0184ddc096e726ceeee8c6eb9537dd7e734dfb362f8d39",
        },
    ),
]


@pytest.mark.parametrize("config,digests", PINNED, ids=["small", "default-seed7"])
def test_write_dataset_bytes_are_pinned(tmp_path, config, digests):
    paths = write_dataset(config, tmp_path)
    assert sorted(p.name for p in paths.values()) == sorted(digests)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths.values()}
    assert got == digests


def _peak_bytes(tmp_path, actions: int) -> int:
    config = SynthConfig(users=50, hubs=2, seed=3, actions=actions)
    tracemalloc.start()
    try:
        write_dataset(config, tmp_path / f"a{actions}")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_dataset_memory_does_not_grow_with_actions(tmp_path):
    growth = _peak_bytes(tmp_path, 500) - _peak_bytes(tmp_path, 50)
    assert growth < 64 * 1024, f"peak grew by {growth / 1024:.0f} KiB from 50 to 500 actions"
