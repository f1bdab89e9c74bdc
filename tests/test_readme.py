"""The README's Library snippet runs as written against a generated dataset."""
from __future__ import annotations

import re
from pathlib import Path

from followups import harness
from followups.featurization import ACTION, USER
from followups.ingestion import global_followup_stats
from followups.synth import SynthConfig, write_dataset

README = Path(__file__).resolve().parent.parent / "README.md"


def library_snippet() -> str:
    """The first `python` block under the `## Library` heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under ## Library"
    return match.group(1)


def test_library_snippet_runs(tmp_path, monkeypatch):
    paths = write_dataset(SynthConfig(users=300, actions=120, seed=5, hubs=6), tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    user_attrs = harness.load_table(paths["user_attrs"], USER)
    action_attrs = harness.load_table(paths["action_attrs"], ACTION)
    stats = global_followup_stats(harness.load_graph(paths["graph"]), harness.load_log(paths["actions"]))
    bins = harness.prepare_bins(user_attrs, action_attrs, stats, 3)
    namespace = {"user_attrs": user_attrs, "action_attrs": action_attrs, "bins": bins}
    exec(compile(library_snippet(), str(README), "exec"), namespace)
    assert len(namespace["top"]) == 10
    assert namespace["result"].explanations
