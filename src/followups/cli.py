"""Command-line front end.

Subcommands: gen, rank, histogram, mine, baseline, sweep, render.
Exit codes: 0 success, 2 parse/config error, 3 resource-guard error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import harness, synth
from .errors import ConfigError, FollowupsError, ParseError, ResourceLimitError
from .featurization import TARGET_FOLLOWER, TARGET_INFLUENCER
from .ingestion import require_max_delay, require_top_n

# `SynthConfig` fields `gen` exposes as options; their defaults are the
# dataclass's, so `gen` and `write_dataset(SynthConfig(...))` agree.
_GEN_FIELDS = (
    "users",
    "actions",
    "seed",
    "hubs",
    "genres",
    "directors",
    "writers",
    "follower_base",
    "follower_skew",
    "activity_skew",
    "cascade_base",
    "cascade_boost",
)


def _add_input_args(parser: argparse.ArgumentParser, attrs: bool) -> None:
    parser.add_argument("--graph", required=True, type=Path, help="social graph TSV (u<TAB>v, v follows u)")
    parser.add_argument("--actions", required=True, type=Path, help="action log TSV (user<TAB>action<TAB>time)")
    parser.add_argument("--max-delay", type=int, default=None, help="max propagation delay per arc (default: unbounded)")
    if attrs:
        parser.add_argument("--user-attrs", type=Path, default=None, help="user attribute TSV")
        parser.add_argument("--action-attrs", type=Path, default=None, help="action attribute TSV")
        parser.add_argument("--bins", type=Path, default=None, help="bin-spec JSON (default: equi-depth bins computed from the data)")
        parser.add_argument("--nbins", type=int, default=3, help="bins per numeric attribute when computing bins")
        parser.add_argument(
            "--user-predicate-target",
            choices=(TARGET_FOLLOWER, TARGET_INFLUENCER),
            default=TARGET_FOLLOWER,
            help="entity user predicates are evaluated on",
        )


def _add_mining_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-k", type=int, default=6, help="max number of explanations")
    parser.add_argument("-l", type=int, default=3, help="min predicates per explanation")
    parser.add_argument("--top", type=int, default=100, help="number of top influencers to mine")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized algorithms")
    parser.add_argument("--budget", type=int, default=None, help="node budget for the exhaustive search")
    parser.add_argument("--out", required=True, type=Path, help="output directory")


def _config_from_args(args: argparse.Namespace, algo: str) -> harness.RunConfig:
    config = harness.RunConfig(
        graph=args.graph,
        actions=args.actions,
        user_attrs=args.user_attrs,
        action_attrs=args.action_attrs,
        bins=args.bins,
        nbins=args.nbins,
        algo=algo,
        k=args.k,
        l=args.l,
        top_n=args.top,
        seed=args.seed,
        max_delay=args.max_delay,
        target=args.user_predicate_target,
        out_dir=args.out,
    )
    if args.budget is not None:
        config.node_budget = args.budget
    return config


def _write_or_print(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="followups", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded synthetic dataset")
    p.add_argument("--out", required=True, type=Path)
    defaults = {f.name: f.default for f in dataclasses.fields(synth.SynthConfig)}
    for name in _GEN_FIELDS:
        default = defaults[name]
        p.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)

    p = sub.add_parser("rank", help="rank influencers by followup count")
    _add_input_args(p, attrs=False)
    p.add_argument("--top", type=int, default=100)
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("histogram", help="followup-frequency distribution CSV")
    _add_input_args(p, attrs=False)
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("mine", help="mine explanations for the top influencers")
    _add_input_args(p, attrs=True)
    p.add_argument("--algo", choices=("greedy", "eager"), default="greedy")
    _add_mining_args(p)

    p = sub.add_parser("baseline", help="run a baseline algorithm")
    _add_input_args(p, attrs=True)
    p.add_argument("--algo", choices=("random", "most-popular", "exhaustive", "oracle"), required=True)
    _add_mining_args(p)

    p = sub.add_parser("sweep", help="coverage sweep over k or l")
    _add_input_args(p, attrs=True)
    p.add_argument("--axis", choices=("k", "l"), required=True)
    p.add_argument("--values", required=True, help="comma-separated strictly ascending axis values")
    p.add_argument("--algos", default="greedy,most-popular,random", help="comma-separated algorithms")
    p.add_argument("--timing-out", type=Path, default=None, help="also write wall-clock medians (not deterministic)")
    _add_mining_args(p)

    p = sub.add_parser("render", help="render an explanation JSON as a text table")
    p.add_argument("--in", dest="input", required=True, type=Path)
    p.add_argument("--display", default=None, help="attr=shortname,... prefixes for ambiguous values")
    p.add_argument("--out", type=Path, default=None)
    return parser


def _cmd_gen(args: argparse.Namespace) -> int:
    config = synth.SynthConfig(**{name: getattr(args, name) for name in _GEN_FIELDS})
    paths = synth.write_dataset(config, args.out)
    for name in sorted(paths):
        print(f"{name}: {paths[name]}")
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    require_top_n(args.top)
    require_max_delay(args.max_delay)
    graph = harness.load_graph(args.graph)
    log = harness.load_log(args.actions)
    _write_or_print(harness.rank_csv(graph, log, args.top, args.max_delay), args.out)
    return 0


def _cmd_histogram(args: argparse.Namespace) -> int:
    require_max_delay(args.max_delay)
    graph = harness.load_graph(args.graph)
    log = harness.load_log(args.actions)
    _write_or_print(harness.histogram_csv(graph, log, args.max_delay), args.out)
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    config = _config_from_args(args, args.algo)
    result = harness.run_pipeline(config)
    print(f"wrote {len(result.written)} files to {config.out_dir}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args, "greedy")
    try:
        values = [int(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"bad sweep values {args.values!r}") from None
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
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


def _cmd_render(args: argparse.Namespace) -> int:
    try:
        doc = json.loads(Path(args.input).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{args.input}: not an explanation JSON document: {exc}") from None
    if not isinstance(doc, dict) or not doc.get("explanations"):
        raise ParseError(f"{args.input}: no explanations to render")
    _require_keys(doc, ("influencer", "total_followups", "total_coverage"), "the document", args.input)
    if not isinstance(doc["explanations"], list):
        raise ParseError(f"{args.input}: 'explanations' is not a list")
    for i, row in enumerate(doc["explanations"]):
        _require_keys(row, ("predicates", "actions", "followers", "followups"), f"explanation {i}", args.input)
        if not isinstance(row["predicates"], list):
            raise ParseError(f"{args.input}: explanation {i}: 'predicates' is not a list")
        for pred in row["predicates"]:
            _require_keys(pred, ("dimension", "attribute", "value"), f"a predicate of explanation {i}", args.input)
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
