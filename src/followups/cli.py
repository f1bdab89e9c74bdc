"""Command-line front end.

Subcommands: gen, rank, histogram, mine, baseline, sweep, render.
Exit codes: 0 success, 2 parse/config error, 3 resource-guard error.

Each option that sets a `harness.RunConfig` field (or, for `gen`, a
`synth.SynthConfig` field) has that field's name as its `dest` and no
default: an option left out is absent from the parsed namespace, so the
dataclass's default and checks are the only ones.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import harness
from .errors import ConfigError, FollowupsError, ParseError, ResourceLimitError
from .featurization import TARGET_FOLLOWER, TARGET_INFLUENCER

# `SynthConfig` fields `gen` exposes as options, each with the type of its
# default. `synth` is imported by `gen` alone.
_GEN_OPTIONS = {
    "users": int,
    "actions": int,
    "seed": int,
    "hubs": int,
    "genres": int,
    "directors": int,
    "writers": int,
    "follower_base": float,
    "follower_skew": float,
    "activity_skew": float,
    "cascade_base": float,
    "cascade_boost": float,
}


def _add_input_args(parser: argparse.ArgumentParser, attrs: bool) -> None:
    parser.add_argument("--graph", required=True, type=Path, help="social graph TSV (u<TAB>v, v follows u)")
    parser.add_argument("--actions", required=True, type=Path, help="action log TSV (user<TAB>action<TAB>time)")
    parser.add_argument("--max-delay", type=int, help="max propagation delay per arc (default: unbounded)")
    if attrs:
        parser.add_argument("--user-attrs", type=Path, help="user attribute TSV")
        parser.add_argument("--action-attrs", type=Path, help="action attribute TSV")
        parser.add_argument("--bins", type=Path, help="bin-spec JSON (default: equi-depth bins computed from the data)")
        parser.add_argument("--nbins", type=int, help="bins per numeric attribute when computing bins")
        parser.add_argument(
            "--user-predicate-target",
            dest="target",
            choices=(TARGET_FOLLOWER, TARGET_INFLUENCER),
            help="entity user predicates are evaluated on",
        )


def _add_mining_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-k", type=int, help="max number of explanations")
    parser.add_argument("-l", type=int, help="min predicates per explanation")
    parser.add_argument("--top", dest="top_n", type=int, help="number of top influencers to mine")
    parser.add_argument("--seed", type=int, help="seed for randomized algorithms")
    parser.add_argument(
        "--budget",
        dest="node_budget",
        type=int,
        help="node budget: nodes the exhaustive search may visit, and draws (k * l) the random baseline may make",
    )
    parser.add_argument("--out", dest="out_dir", required=True, type=Path, help="output directory")


def _given(args: argparse.Namespace, names) -> dict:
    """The parsed options whose `dest` is in `names`: those on the command line."""
    return {name: value for name, value in vars(args).items() if name in names}


def _config_from_args(args: argparse.Namespace) -> harness.RunConfig:
    return harness.RunConfig(**_given(args, {f.name for f in dataclasses.fields(harness.RunConfig)}))


def _write_or_print(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="followups", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        """A subcommand whose options without a `default=` are absent when not given."""
        return sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)

    p = command("gen", "generate a seeded synthetic dataset")
    p.add_argument("--out", required=True, type=Path)
    for name, type_ in _GEN_OPTIONS.items():
        p.add_argument("--" + name.replace("_", "-"), type=type_)

    p = command("rank", "rank influencers by followup count")
    _add_input_args(p, attrs=False)
    p.add_argument("--top", dest="top_n", type=int, help="number of top influencers to list")
    p.add_argument("--out", type=Path, default=None)

    p = command("histogram", "followup-frequency distribution CSV")
    _add_input_args(p, attrs=False)
    p.add_argument("--out", type=Path, default=None)

    p = command("mine", "mine explanations for the top influencers")
    _add_input_args(p, attrs=True)
    p.add_argument("--algo", choices=("greedy", "eager"))
    _add_mining_args(p)

    p = command("baseline", "run a baseline algorithm")
    _add_input_args(p, attrs=True)
    p.add_argument("--algo", choices=("random", "most-popular", "exhaustive", "oracle"), required=True)
    _add_mining_args(p)

    p = command("sweep", "coverage sweep over k or l")
    _add_input_args(p, attrs=True)
    p.add_argument("--axis", choices=("k", "l"), required=True)
    p.add_argument("--values", required=True, help="comma-separated strictly ascending axis values")
    p.add_argument("--algos", default="greedy,most-popular,random", help="comma-separated algorithms, each at most once")
    p.add_argument("--timing-out", type=Path, default=None, help="also write wall-clock medians (not deterministic)")
    _add_mining_args(p)

    p = sub.add_parser("render", help="render an explanation JSON as a text table")
    p.add_argument("--in", dest="input", required=True, type=Path)
    p.add_argument("--display", default=None, help="attr=shortname,... prefixes for ambiguous values")
    p.add_argument("--out", type=Path, default=None)
    return parser


def _cmd_gen(args: argparse.Namespace) -> int:
    from . import synth

    paths = synth.write_dataset(synth.SynthConfig(**_given(args, _GEN_OPTIONS)), args.out)
    for name in sorted(paths):
        print(f"{name}: {paths[name]}")
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    config.validate()
    graph, log = harness.load_graph(config.graph), harness.load_log(config.actions)
    _write_or_print(harness.rank_csv(graph, log, config.top_n, config.max_delay), args.out)
    return 0


def _cmd_histogram(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    config.validate()
    graph, log = harness.load_graph(config.graph), harness.load_log(config.actions)
    _write_or_print(harness.histogram_csv(graph, log, config.max_delay), args.out)
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    result = harness.run_pipeline(config)
    print(f"wrote {len(result.written)} files to {config.out_dir}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    try:
        values = [int(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"bad sweep values {args.values!r}") from None
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    harness.check_sweep_args(config, args.axis, values, algos)
    if "random" in algos:
        k, l = (values[-1], config.l) if args.axis == "k" else (config.k, values[-1])
        harness.require_random_draws(k, l, config.node_budget)
    result = harness.sweep(config, args.axis, values, algos)
    paths = harness.write_sweep_csv(result, config.out_dir, args.timing_out)
    for path in paths:
        print(f"wrote {path}")
    return 0


def _require_keys(obj, keys: tuple[str, ...], what: str, path: Path) -> None:
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: {what} is not a JSON object")
    for key in keys:
        if key not in obj:
            raise ParseError(f"{path}: {what} has no {key!r} key")


def _require_types(
    obj: dict, keys: tuple[str, ...], types: tuple[type, ...], noun: str, what: str, path: Path
) -> None:
    for key in keys:
        if isinstance(obj[key], bool) or not isinstance(obj[key], types):
            raise ParseError(f"{path}: {what}: {key!r} is not {noun}")


def _require_figures(obj: dict, keys: tuple[str, ...], what: str, path: Path) -> None:
    """Numbers that passed `_require_types` must be finite and non-negative."""
    for key in keys:
        if isinstance(obj[key], float) and not math.isfinite(obj[key]):
            raise ParseError(f"{path}: {what}: {key!r} is not finite")
        if obj[key] < 0:
            raise ParseError(f"{path}: {what}: {key!r} is negative")


def _cmd_render(args: argparse.Namespace) -> int:
    try:
        doc = json.loads(Path(args.input).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{args.input}: not an explanation JSON document: {exc}") from None
    if not isinstance(doc, dict) or not doc.get("explanations"):
        raise ParseError(f"{args.input}: no explanations to render")
    _require_keys(doc, ("influencer", "total_followups", "total_coverage"), "the document", args.input)
    totals = ("total_followups", "total_coverage")
    _require_types(doc, totals, (int, float), "a number", "the document", args.input)
    _require_figures(doc, totals, "the document", args.input)
    if not isinstance(doc["explanations"], list):
        raise ParseError(f"{args.input}: 'explanations' is not a list")
    for i, row in enumerate(doc["explanations"]):
        counts = ("actions", "followers", "followups")
        _require_keys(row, ("predicates", *counts), f"explanation {i}", args.input)
        _require_types(row, counts, (int,), "an integer", f"explanation {i}", args.input)
        _require_figures(row, counts, f"explanation {i}", args.input)
        if not isinstance(row["predicates"], list):
            raise ParseError(f"{args.input}: explanation {i}: 'predicates' is not a list")
        for pred in row["predicates"]:
            fields = ("dimension", "attribute", "value")
            _require_keys(pred, fields, f"a predicate of explanation {i}", args.input)
            _require_types(pred, fields, (str,), "a string", f"a predicate of explanation {i}", args.input)
    display = None
    if args.display:
        display = {}
        for item in args.display.split(","):
            if "=" not in item:
                raise ConfigError(f"bad display mapping {item!r}")
            attr, name = item.split("=", 1)
            display[attr.strip()] = name.strip()
    _write_or_print(harness.render_table(doc, display), args.out)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "rank": _cmd_rank,
    "histogram": _cmd_histogram,
    "mine": _cmd_pipeline,
    "baseline": _cmd_pipeline,
    "sweep": _cmd_sweep,
    "render": _cmd_render,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FollowupsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
