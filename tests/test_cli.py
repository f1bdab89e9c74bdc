"""Command-line interface: happy paths and exit codes."""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from followups import harness
from followups.cli import _GEN_OPTIONS, _config_from_args, build_parser, main
from followups.errors import ConfigError, ResourceLimitError
from followups.miner import explanation_set_doc
from followups.synth import SynthConfig, write_dataset

CHAIN_GRAPH = "1\t2\n2\t3\n"
CHAIN_LOG = "1\ta\t1\n2\ta\t2\n3\ta\t3\n"


def write_chain(tmp_path: Path) -> dict[str, Path]:
    files = {
        "graph": tmp_path / "graph.tsv",
        "actions": tmp_path / "actions.tsv",
        "user_attrs": tmp_path / "users.attrs.tsv",
        "action_attrs": tmp_path / "actions.attrs.tsv",
    }
    files["graph"].write_text(CHAIN_GRAPH)
    files["actions"].write_text(CHAIN_LOG)
    files["user_attrs"].write_text("2\tgender\tmale\n3\tgender\tfemale\n")
    files["action_attrs"].write_text("a\tgenre\tcomedy\n")
    return files


def attr_args(files):
    return [
        "--graph", str(files["graph"]),
        "--actions", str(files["actions"]),
        "--user-attrs", str(files["user_attrs"]),
        "--action-attrs", str(files["action_attrs"]),
    ]


def test_gen_rank_histogram_roundtrip(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path / "ds"), "--users", "80", "--actions", "30", "--seed", "4", "--hubs", "4"]) == 0
    capsys.readouterr()
    rank_out = tmp_path / "rank.csv"
    assert main([
        "rank", "--graph", str(tmp_path / "ds" / "graph.tsv"),
        "--actions", str(tmp_path / "ds" / "actions.tsv"),
        "--top", "3", "--out", str(rank_out),
    ]) == 0
    lines = rank_out.read_text().splitlines()
    assert lines[0] == "rank,influencer,followups"
    assert len(lines) <= 4
    hist_out = tmp_path / "hist.csv"
    assert main([
        "histogram", "--graph", str(tmp_path / "ds" / "graph.tsv"),
        "--actions", str(tmp_path / "ds" / "actions.tsv"),
        "--out", str(hist_out),
    ]) == 0
    assert hist_out.read_text().startswith("followups,users\n")


def test_mine_baseline_render(tmp_path, capsys):
    files = write_chain(tmp_path)
    out = tmp_path / "mined"
    assert main(["mine", *attr_args(files), "-k", "1", "-l", "1", "--top", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    [jpath] = sorted(out.glob("explanations_*.json"))
    doc = json.loads(jpath.read_text())
    assert doc["relative_coverage"] == 1.0

    bout = tmp_path / "baseline"
    assert main([
        "baseline", *attr_args(files), "--algo", "most-popular",
        "-k", "1", "-l", "1", "--top", "1", "--out", str(bout),
    ]) == 0
    bdoc = json.loads(next(iter(sorted(bout.glob("explanations_*.json")))).read_text())
    assert bdoc["algorithm"] == "most-popular"

    table = tmp_path / "table.txt"
    assert main(["render", "--in", str(jpath), "--out", str(table)]) == 0
    assert "Total Coverage: 100.0%" in table.read_text()


def test_sweep_cli(tmp_path, capsys):
    files = write_chain(tmp_path)
    out = tmp_path / "sweep"
    assert main([
        "sweep", *attr_args(files), "--axis", "k", "--values", "1,2",
        "--algos", "greedy,most-popular", "-l", "1", "--top", "2", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    assert (out / "sweep_raw.csv").exists()
    assert (out / "sweep_medians.csv").read_text().splitlines()[0] == "k,greedy,most-popular"


def test_parse_error_exit_code(tmp_path, capsys):
    files = write_chain(tmp_path)
    files["graph"].write_text("1\t1\n")  # self-arc
    code = main(["rank", "--graph", str(files["graph"]), "--actions", str(files["actions"]), "--top", "1"])
    capsys.readouterr()
    assert code == 2


def test_missing_file_exit_code(tmp_path, capsys, monkeypatch):
    inputs = ["--graph", str(tmp_path / "nope.tsv"), "--actions", str(tmp_path / "nope2.tsv")]
    refuse_input_loading(monkeypatch, "a missing input")
    for argv in (["rank", *inputs, "--top", "1"], ["histogram", *inputs]):
        code = main(argv)
        assert capsys.readouterr().err == f"error: input file not found: {tmp_path / 'nope.tsv'}\n"
        assert code == 2


def test_resource_guard_exit_code(tmp_path, capsys):
    assert main([
        "gen", "--out", str(tmp_path / "ds"), "--users", "150", "--actions", "60", "--seed", "2", "--hubs", "5",
        "--cascade-base", "0.04", "--cascade-boost", "0.5",
    ]) == 0
    capsys.readouterr()
    ds = tmp_path / "ds"
    code = main([
        "baseline",
        "--graph", str(ds / "graph.tsv"),
        "--actions", str(ds / "actions.tsv"),
        "--user-attrs", str(ds / "users.attrs.tsv"),
        "--action-attrs", str(ds / "actions.attrs.tsv"),
        "--algo", "oracle", "-k", "1", "-l", "1", "--top", "1",
        "--out", str(tmp_path / "out"),
    ])
    capsys.readouterr()
    assert code == 3


def test_gen_defaults_match_synth_config(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path / "cli"), "--seed", "7"]) == 0
    capsys.readouterr()
    write_dataset(SynthConfig(seed=7), tmp_path / "lib")
    for name in ("graph.tsv", "actions.tsv", "users.attrs.tsv", "actions.attrs.tsv"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes(), name


def test_cli_import_does_not_load_the_generator():
    """Only `gen` needs `synth`; the other commands do not pay for importing it."""
    src = Path(__file__).resolve().parent.parent / "src"
    script = "import sys, followups.cli; print('followups.synth' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True)
    assert out.stdout == "False\n"


def test_option_defaults_are_the_config_defaults():
    """An option left out takes its `RunConfig` default; `gen`'s options
    have the types of their `SynthConfig` defaults."""
    minimal = [
        (["mine", "--out", "o"], {"out_dir": Path("o")}),
        (["baseline", "--algo", "random", "--out", "o"], {"out_dir": Path("o"), "algo": "random"}),
        (["sweep", "--axis", "k", "--values", "1", "--out", "o"], {"out_dir": Path("o")}),
        (["rank"], {}),
        (["histogram"], {}),
    ]
    for argv, given in minimal:
        config = _config_from_args(build_parser().parse_args([*argv, "--graph", "g", "--actions", "a"]))
        expected = harness.RunConfig(graph=Path("g"), actions=Path("a"), **given)
        for f in dataclasses.fields(harness.RunConfig):
            assert getattr(config, f.name) == getattr(expected, f.name), (argv[0], f.name)
    [subparsers] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    synth_defaults = {f.name: f.default for f in dataclasses.fields(SynthConfig)}
    gen_options = [a for a in subparsers.choices["gen"]._actions if a.dest in synth_defaults]
    assert len(gen_options) == 12
    for action in gen_options:
        assert action.type is type(synth_defaults[action.dest]), action.dest


@pytest.mark.parametrize("command", ["gen", "rank", "histogram", "mine", "baseline", "sweep", "render"])
def test_help_exits_cleanly(capsys, command):
    """`%(default)s` in the help of an option without a default either
    fails or prints argparse's `==SUPPRESS==` marker."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    out, err = capsys.readouterr()
    assert exc.value.code == 0
    assert command in out and "==SUPPRESS==" not in out + err


def run_error(argv, capsys) -> tuple[int, str]:
    code = main(argv)
    return code, capsys.readouterr().err


# `json.loads` refuses these with a plain ValueError and a RecursionError
UNLOADABLE_JSON = [
    pytest.param("[" + "1" * 5001 + "]", id="5001-digit-int"),
    pytest.param("[" * 100_000, id="deep-nesting"),
]


@pytest.mark.parametrize("flag", ["--users", "--hubs"])
def test_gen_zero_sizes_are_config_errors(tmp_path, capsys, flag):
    code, err = run_error(["gen", "--out", str(tmp_path / "ds"), flag, "0"], capsys)
    assert code == 2
    assert flag[2:] in err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--follower-base", "nan"),
        ("--follower-base", "inf"),
        ("--activity-skew", "nan"),
        ("--follower-skew", "nan"),
        ("--cascade-boost", "nan"),
        ("--actions", "-3"),
        ("--cascade-boost", "2"),
        ("--cascade-base", "-0.5"),
        ("--follower-base", "-1"),
    ],
)
def test_gen_bad_generator_settings_are_config_errors(tmp_path, capsys, flag, value):
    argv = ["gen", "--out", str(tmp_path / "ds"), "--users", "50", "--hubs", "2", flag, value]
    code, err = run_error(argv, capsys)
    assert code == 2
    assert err.startswith("error:") and flag[2:].replace("-", "_") in err
    assert "Traceback" not in err
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize(
    "fields",
    [
        {"taste_bias": 0.0},
        {"taste_bias": -1.0},
        {"taste_bias": float("nan")},
        {"multi_genre_p": float("inf")},
        {"cascade_base": float("-inf")},
        {"actions": -1},
        {"max_hops": -1},
        {"background_follows": -1},
        {"noise_performers": -1},
        {"multi_genre_p": 1.5},
        {"multi_genre_p": -0.1},
        {"genre_skew": -1.0},
    ],
)
def test_synth_config_rejects_bad_settings(fields):
    with pytest.raises(ConfigError, match=next(iter(fields))):
        SynthConfig(users=50, hubs=2, **fields)


def test_bins_file_without_boundaries_names_the_file(tmp_path, capsys):
    files = write_chain(tmp_path)
    bins = tmp_path / "bins.json"
    bins.write_text('[{"attribute": "year", "labels": ["all"]}]')
    code, err = run_error(
        ["mine", *attr_args(files), "--bins", str(bins), "--top", "1", "--out", str(tmp_path / "out")], capsys
    )
    assert code == 2
    assert str(bins) in err and "boundaries" in err


def test_numeric_attribute_of_both_tables_is_config_error(tmp_path, capsys):
    """Bins are keyed by attribute name: one table's cuts would bin the other's values."""
    files = write_chain(tmp_path)
    files["user_attrs"].write_text("#numeric: n\n1\tn\t100\n2\tn\t300\n3\tn\t600\n")
    files["action_attrs"].write_text("#numeric: n\na\tn\t3\n")
    out = tmp_path / "out"
    code, err = run_error(["mine", *attr_args(files), "--top", "1", "--out", str(out)], capsys)
    assert code == 2
    assert "two bin specs for attribute 'n'" in err
    assert not list(out.glob("*"))


def test_declared_numeric_attribute_without_values_is_named(tmp_path, capsys):
    """Binning says which declared attribute has no rows; no --bins is given,
    so the catalog's missing-bin-spec message would mislead."""
    files = write_chain(tmp_path)
    files["user_attrs"].write_text("#numeric: age,income\n2\tage\t30\n3\tage\t40\n")
    out = tmp_path / "out"
    code, err = run_error(["mine", *attr_args(files), "--top", "1", "--out", str(out)], capsys)
    assert code == 2
    assert "numeric attribute 'income' of the user table has no values" in err
    assert "bin spec" not in err
    assert not list(out.glob("*"))


def test_bins_file_repeating_an_attribute_is_config_error(tmp_path, capsys):
    files = write_chain(tmp_path)
    files["user_attrs"].write_text("#numeric: age\n2\tage\t30\n3\tage\t40\n")
    bins = tmp_path / "bins.json"
    spec = '{"attribute": "age", "boundaries": [35], "labels": ["lo", "hi"]}'
    bins.write_text(f"[{spec}, {spec}]")
    out = tmp_path / "out"
    code, err = run_error(["mine", *attr_args(files), "--bins", str(bins), "--top", "1", "--out", str(out)], capsys)
    assert code == 2
    assert "two bin specs for attribute 'age'" in err
    assert not list(out.glob("*"))


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_non_finite_numeric_attribute_is_parse_error(tmp_path, capsys, value):
    """A NaN or infinite age would become a bin boundary or a `pre-nan` label."""
    files = write_chain(tmp_path)
    files["user_attrs"].write_text(f"#numeric: age\n2\tage\t30\n3\tage\t{value}\n")
    out = tmp_path / "out"
    code, err = run_error(["mine", *attr_args(files), "--top", "1", "--out", str(out)], capsys)
    assert code == 2
    assert f"{files['user_attrs']}: line 3: non-finite value {value!r}" in err
    assert not list(out.glob("*"))


@pytest.mark.parametrize("boundary", ["NaN", "Infinity", "-Infinity", pytest.param("1" + "0" * 400, id="1e400")])
def test_non_finite_bin_boundary_is_parse_error(tmp_path, capsys, boundary):
    files = write_chain(tmp_path)
    files["user_attrs"].write_text("#numeric: age\n2\tage\t30\n3\tage\t40\n")
    bins = tmp_path / "bins.json"
    bins.write_text(f'[{{"attribute": "age", "boundaries": [{boundary}], "labels": ["lo", "hi"]}}]')
    out = tmp_path / "out"
    code, err = run_error(["mine", *attr_args(files), "--bins", str(bins), "--top", "1", "--out", str(out)], capsys)
    assert code == 2
    assert str(bins) in err and "boundaries must be finite" in err
    assert not list(out.glob("*"))


@pytest.mark.parametrize("text", UNLOADABLE_JSON)
def test_unloadable_bins_file_names_the_file(tmp_path, capsys, text):
    files = write_chain(tmp_path)
    bins = tmp_path / "bins.json"
    bins.write_text(text)
    out = tmp_path / "out"
    code, err = run_error(["mine", *attr_args(files), "--bins", str(bins), "--top", "1", "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith(f"error: {bins}: invalid JSON: ")
    assert "Traceback" not in err
    assert not list(out.glob("*"))


def test_nbins_zero_is_config_error(tmp_path, capsys):
    files = write_chain(tmp_path)
    code, err = run_error(["mine", *attr_args(files), "--nbins", "0", "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert "nbins" in err


def test_sweep_value_zero_is_config_error(tmp_path, capsys):
    files = write_chain(tmp_path)
    code, err = run_error(
        ["sweep", *attr_args(files), "--axis", "k", "--values", "0,1", "--out", str(tmp_path / "out")], capsys
    )
    assert code == 2
    assert "sweep values" in err


def refuse_input_loading(monkeypatch, what: str) -> None:
    def not_reached(*args, **kwargs):
        raise AssertionError(f"{what} is checked before the inputs are loaded")

    for name in ("load_graph", "load_log", "load_table", "global_followup_stats", "influencer_followup_counts"):
        monkeypatch.setattr(harness, name, not_reached)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--values", "1,2", "--algos", ","], "at least one algorithm"),
        (["--values", "1,1"], "strictly ascending"),
        (["--values", "1,2", "--algos", "greedy,random,greedy"], "must not repeat"),
    ],
)
def test_sweep_without_algorithms_or_with_repeated_values_is_config_error(tmp_path, capsys, monkeypatch, flags, message):
    files = write_chain(tmp_path)
    out = tmp_path / "out"
    refuse_input_loading(monkeypatch, "the sweep's values and algorithms")
    code, err = run_error(["sweep", *attr_args(files), "--axis", "k", *flags, "--out", str(out)], capsys)
    assert code == 2
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("command, algo", [("baseline", "exhaustive"), ("sweep", None)])
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_below_one_is_config_error(tmp_path, capsys, monkeypatch, command, algo, budget):
    """A budget below 1 would trip on the first node; it is refused before any input is read."""
    files = write_chain(tmp_path)
    out = tmp_path / "out"
    refuse_input_loading(monkeypatch, "--budget")
    if command == "baseline":
        args = ["--algo", algo]
    else:
        args = ["--axis", "k", "--values", "1,2", "--algos", "exhaustive"]
    code, err = run_error([command, *attr_args(files), *args, "--budget", budget, "--out", str(out)], capsys)
    assert code == 2
    assert "node budget must be >= 1" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, args",
    [
        ("baseline", ["--algo", "random", "-k", "4"]),
        ("sweep", ["--axis", "k", "--values", "1,4", "--algos", "greedy,random"]),
        ("sweep", ["--axis", "l", "--values", "1,3", "--algos", "random", "-k", "4"]),
    ],
)
def test_random_draws_over_budget_exit_3(tmp_path, capsys, monkeypatch, command, args):
    """The random baseline's k * l draws over `--budget` stop the run before
    any input is read or output written."""
    files = write_chain(tmp_path)
    out = tmp_path / "out"
    refuse_input_loading(monkeypatch, "the random baseline's draws")
    code, err = run_error([command, *attr_args(files), *args, "-l", "3", "--budget", "11", "--out", str(out)], capsys)
    assert code == 3
    assert err == "error: random baseline would make k * l = 12 draws, over node budget 11\n"
    assert not out.exists()


def test_random_draws_within_budget_are_allowed():
    harness.require_random_draws(4, 3, 12)
    with pytest.raises(ResourceLimitError, match="k \\* l = 12"):
        harness.require_random_draws(4, 3, 11)


@pytest.mark.parametrize("text", ["", "not json {", *UNLOADABLE_JSON])
def test_render_unreadable_input_names_the_file(tmp_path, capsys, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, err = run_error(["render", "--in", str(path)], capsys)
    assert code == 2
    assert str(path) in err


@pytest.mark.parametrize(
    "doc",
    [
        {"explanations": [{}]},
        {"explanations": [1]},
        {"explanations": "rows"},
        {
            "influencer": 1,
            "total_followups": 2,
            "total_coverage": 2,
            "explanations": [{"predicates": [{"dimension": "user"}], "actions": 1, "followers": 1, "followups": 2}],
        },
        {
            "influencer": 1,
            "total_coverage": 2,
            "explanations": [{"predicates": [], "actions": 1, "followers": 1, "followups": 2}],
        },
    ],
)
def test_render_malformed_document_names_the_file(tmp_path, capsys, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, err = run_error(["render", "--in", str(path)], capsys)
    assert code == 2
    assert str(path) in err


def valid_render_doc():
    pred = {"dimension": "user", "attribute": "gender", "value": "male"}
    row = {"predicates": [pred], "actions": 1, "followers": 1, "followups": 2}
    return {"influencer": 1, "total_followups": 2, "total_coverage": 2, "explanations": [row]}


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("total_followups", "2", "the document: 'total_followups' is not a number"),
        ("total_coverage", True, "the document: 'total_coverage' is not a number"),
        ("followups", "2", "explanation 0: 'followups' is not an integer"),
        ("actions", 1.0, "explanation 0: 'actions' is not an integer"),
        ("value", ["male"], "a predicate of explanation 0: 'value' is not a string"),
        ("dimension", 1, "a predicate of explanation 0: 'dimension' is not a string"),
    ],
)
def test_render_mistyped_field_names_the_file(tmp_path, capsys, field, value, message):
    """A mistyped field is a malformed document (exit 2), not a TypeError in the renderer."""
    doc = valid_render_doc()
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["render", "--in", str(path)]) == 0
    capsys.readouterr()
    row = doc["explanations"][0]
    for holder in (doc, row, row["predicates"][0]):
        if field in holder:
            holder[field] = value
    path.write_text(json.dumps(doc))
    code, err = run_error(["render", "--in", str(path)], capsys)
    assert code == 2
    assert f"{path}: {message}" in err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("total_coverage", float("nan"), "the document: 'total_coverage' is not finite"),
        ("total_followups", float("inf"), "the document: 'total_followups' is not finite"),
        ("total_followups", -2, "the document: 'total_followups' is negative"),
        pytest.param(
            "total_followups", 10**400, "the document: 'total_followups' is out of range", id="total_followups-1e400"
        ),
        pytest.param(
            "total_coverage", 10**400, "the document: 'total_coverage' is out of range", id="total_coverage-1e400"
        ),
        ("total_coverage", -0.5, "the document: 'total_coverage' is negative"),
        ("followups", -5, "explanation 0: 'followups' is negative"),
        ("actions", -1, "explanation 0: 'actions' is negative"),
        ("followers", -1, "explanation 0: 'followers' is negative"),
    ],
)
def test_render_out_of_range_figure_names_the_file(tmp_path, capsys, field, value, message):
    """`json.loads` reads NaN and Infinity; neither they nor a negative count is a figure to render."""
    doc = valid_render_doc()
    row = doc["explanations"][0]
    (doc if field in doc else row)[field] = value
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, err = run_error(["render", "--in", str(path)], capsys)
    assert code == 2
    assert f"{path}: {message}" in err


def with_row(doc, **fields):
    """`doc` with its one explanation row's fields replaced."""
    return {**doc, "explanations": [{**doc["explanations"][0], **fields}]}


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(lambda doc: [doc], "no explanations to render", id="document-not-an-object"),
        pytest.param(lambda doc: {**doc, "explanations": []}, "no explanations to render", id="no-explanations"),
        pytest.param(lambda doc: {k: v for k, v in doc.items() if k != "explanations"}, "no explanations to render",
                     id="no-explanations-key"),
        pytest.param(lambda doc: {**doc, "explanations": {"0": doc["explanations"][0]}}, "'explanations' is not a list",
                     id="explanations-not-a-list"),
        pytest.param(lambda doc: {**doc, "explanations": [1]}, "explanation 0 is not a JSON object",
                     id="row-not-an-object"),
        pytest.param(lambda doc: with_row(doc, predicates="gender=male"), "explanation 0: 'predicates' is not a list",
                     id="predicates-not-a-list"),
        pytest.param(lambda doc: with_row(doc, predicates=["gender=male"]),
                     "a predicate of explanation 0 is not a JSON object", id="predicate-not-an-object"),
    ],
)
def test_render_mis_shaped_document_names_the_file(tmp_path, capsys, edit, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(edit(valid_render_doc())))
    code, err = run_error(["render", "--in", str(path)], capsys)
    assert (code, err) == (2, f"error: {path}: {message}\n")


def test_render_bad_display_mapping_is_config_error(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(valid_render_doc()))
    code, err = run_error(["render", "--in", str(path), "--display", "age=Age,gender"], capsys)
    assert (code, err) == (2, "error: bad display mapping 'gender'\n")


def test_sweep_bad_values_are_config_error(tmp_path, capsys):
    files = write_chain(tmp_path)
    code, err = run_error(
        ["sweep", *attr_args(files), "--axis", "k", "--values", "1,two", "--out", str(tmp_path / "out")], capsys
    )
    assert (code, err) == (2, "error: bad sweep values '1,two'\n")


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("[1]", "bin spec must be an object, got 1", id="spec-not-an-object"),
        pytest.param(
            '[{"attribute": "year", "boundaries": ["2000"], "labels": ["old", "new"]}]',
            "bin spec {'attribute': 'year', 'boundaries': ['2000'], 'labels': ['old', 'new']} "
            "needs a string attribute, numeric boundaries and string labels",
            id="spec-wrong-types",
        ),
        pytest.param('{"attribute": "year"}', "expected a JSON list of bin specs", id="not-a-list"),
    ],
)
def test_mis_shaped_bins_file_names_the_file(tmp_path, capsys, text, message):
    files = write_chain(tmp_path)
    bins = tmp_path / "bins.json"
    bins.write_text(text)
    out = tmp_path / "out"
    code, err = run_error(["mine", *attr_args(files), "--bins", str(bins), "--top", "1", "--out", str(out)], capsys)
    assert (code, err) == (2, f"error: {bins}: {message}\n")
    assert not list(out.glob("*"))


def test_render_of_written_json_equals_render_of_the_document(tmp_path, capsys):
    """`mine` writes its JSON without building the document; `render` reads
    it back to the same table as the document `json.dumps` writes."""
    files = write_chain(tmp_path)
    files["user_attrs"].write_text('#numeric: age\n2\tgender\tmale\n3\tgender\tf\u00e9minin "\U0001f600"\n3\tage\t40\n')
    files["action_attrs"].write_text("")
    out = tmp_path / "mined"
    assert main(["mine", *attr_args(files), "-k", "3", "-l", "2", "--nbins", "1", "--top", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    [written] = sorted(out.glob("explanations_*.json"))

    user_attrs = harness.load_table(files["user_attrs"], "user")
    action_attrs = harness.load_table(files["action_attrs"], "action")
    bins = harness.bins_from_json((out / "bins.json").read_text())
    fset = harness.compute_followup_set(harness.load_graph(files["graph"]), harness.load_log(files["actions"]), 1)
    index = harness.build_predicate_index(fset, user_attrs, action_attrs, bins)
    eset = harness.run_algorithm("greedy", index, 3, 2)
    oracle = tmp_path / "oracle.json"
    oracle.write_text(json.dumps(explanation_set_doc(eset, index), indent=2) + "\n", encoding="utf-8")
    assert written.read_bytes() == oracle.read_bytes()
    assert "\\u00e9" in oracle.read_text(encoding="utf-8")

    tables = []
    for path in (written, oracle):
        assert main(["render", "--in", str(path), "--display", "gender=Gender"]) == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]
    assert "féminin" in tables[0]


@pytest.mark.parametrize("top", ["0", "-1"])
def test_rank_top_below_one_is_config_error(tmp_path, capsys, monkeypatch, top):
    files = write_chain(tmp_path)
    out = tmp_path / "rank.csv"

    def not_reached(*args, **kwargs):
        raise AssertionError("--top is checked before the inputs are loaded")

    for name in ("load_graph", "load_log", "global_followup_stats", "influencer_followup_counts"):
        monkeypatch.setattr(harness, name, not_reached)
    code, err = run_error(
        ["rank", "--graph", str(files["graph"]), "--actions", str(files["actions"]), "--top", top, "--out", str(out)],
        capsys,
    )
    assert code == 2
    assert "top_n" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["rank", "histogram", "mine", "baseline", "sweep"])
@pytest.mark.parametrize("delay", ["0", "-5"])
def test_max_delay_below_one_is_config_error(tmp_path, capsys, monkeypatch, command, delay):
    """A delay below 1 would drop every DAG arc; it is refused before any input is read."""
    files = write_chain(tmp_path)
    out = tmp_path / "out"

    def not_reached(*args, **kwargs):
        raise AssertionError("--max-delay is checked before the inputs are loaded")

    for name in ("load_graph", "load_log", "load_table", "global_followup_stats", "influencer_followup_counts"):
        monkeypatch.setattr(harness, name, not_reached)
    args = {
        "rank": ["--graph", str(files["graph"]), "--actions", str(files["actions"]), "--out", str(out)],
        "histogram": ["--graph", str(files["graph"]), "--actions", str(files["actions"]), "--out", str(out)],
        "mine": attr_args(files) + ["--out", str(out)],
        "baseline": attr_args(files) + ["--algo", "random", "--out", str(out)],
        "sweep": attr_args(files) + ["--axis", "k", "--values", "1,2", "--out", str(out)],
    }[command]
    code, err = run_error([command, *args, "--max-delay", delay], capsys)
    assert code == 2
    assert "max_delay" in err
    assert not out.exists()


def test_non_utf8_input_is_parse_error(tmp_path, capsys):
    files = write_chain(tmp_path)
    files["graph"].write_bytes(b"1\t2\n\xff\xfe\n")
    code, err = run_error(["rank", "--graph", str(files["graph"]), "--actions", str(files["actions"])], capsys)
    assert code == 2
    assert str(files["graph"]) in err


def test_internal_value_error_is_not_a_user_error(tmp_path, capsys, monkeypatch):
    files = write_chain(tmp_path)

    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr(harness, "rank_csv", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["rank", "--graph", str(files["graph"]), "--actions", str(files["actions"])])


@pytest.mark.parametrize(
    "argv",
    [
        ["mine", "-k", str(10**20)],
        ["baseline", "--algo", "random", "-k", str(10**20)],
        ["sweep", "--axis", "k", "--values", f"1,{10**20}"],
    ],
)
def test_k_above_sys_maxsize_is_config_error(tmp_path, capsys, argv):
    files = write_chain(tmp_path)
    out = tmp_path / "out"
    code, err = run_error([argv[0], *attr_args(files), *argv[1:], "--top", "1", "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error: k must be")
    assert "Traceback" not in err
    assert not out.exists()


# Each fuzzed subcommand with the arguments it needs besides its inputs and `--out`.
FUZZ_COMMANDS = {
    "rank": ["--top", "3"],
    "histogram": [],
    "mine": ["--top", "3"],
    "baseline": ["--algo", "random", "--top", "3"],
    "sweep": ["--axis", "k", "--values", "1,2", "--top", "3"],
}


def int_options(command: str) -> list[str]:
    """The options of `command` whose type is `int`."""
    [subparsers] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [a.option_strings[0] for a in subparsers.choices[command]._actions if a.type is int]


@pytest.fixture(scope="module")
def fuzz_dataset(tmp_path_factory):
    return write_dataset(SynthConfig(users=200, actions=80, seed=3, hubs=4), tmp_path_factory.mktemp("fuzz"))


@pytest.mark.parametrize(
    "command, option, value",
    [(c, o, v) for c in FUZZ_COMMANDS for o in int_options(c) for v in (0, -1, 2, 10**20)],
)
def test_int_options_exit_cleanly(tmp_path, capsys, fuzz_dataset, command, option, value):
    """Every int option at 0, -1, 2 and 10**20 exits 0, 2 or 3 with no exception."""
    inputs = ["--graph", str(fuzz_dataset["graph"]), "--actions", str(fuzz_dataset["actions"])]
    if command not in ("rank", "histogram"):
        inputs += ["--user-attrs", str(fuzz_dataset["user_attrs"]), "--action-attrs", str(fuzz_dataset["action_attrs"])]
    argv = [command, *inputs, *FUZZ_COMMANDS[command], "--out", str(tmp_path / "out"), option, str(value)]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    capsys.readouterr()
    assert code in (0, 2, 3)


# `gen`'s size options (users, actions, genres) are left out: each allocates in
# proportion to its value.
@pytest.mark.parametrize(
    "option, value",
    [
        (name, value)
        for name, type_ in _GEN_OPTIONS.items()
        if type_ is float
        for value in ("0", "-1", "2", "1e308", "-1e308", "nan", "inf")
    ],
)
def test_gen_float_options_exit_cleanly(tmp_path, capsys, option, value):
    """Every float option of `gen` at 0, -1, 2, +-1e308, nan and inf exits 0 or 2 with no exception."""
    argv = ["gen", "--out", str(tmp_path), "--users", "60", "--actions", "10", "--hubs", "3"]
    code = main([*argv, f"--{option.replace('_', '-')}={value}"])
    err = capsys.readouterr().err
    assert code in (0, 2)
    assert "Traceback" not in err
