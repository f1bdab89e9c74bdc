"""The action log parser against its per-row reference on seeded random logs,
and seeded random line and byte mutations of all three input parsers.

A mutated input must parse (to the reference's result, for the action log)
or raise a ParseError that names the line; no other exception may escape.
"""
from __future__ import annotations

import io
import random
import re
from collections import Counter

from conftest import reference_parse_action_log
from followups.errors import ParseError
from followups.featurization import ACTION, USER, AttributeTable, load_attribute_table
from followups.ingestion import SocialGraph, parse_action_log, parse_social_graph

LOGS = 200
MUTANTS = 400
NAMES_A_LINE = re.compile(r"line \d+: ")

# Lines a line mutation may insert: skipped, malformed and borderline rows.
JUNK_LINES = (
    "", "   ", "\t", "# comment", "  # indented\tcomment\t1", "#numeric: n0",
    "1\ta", "1\ta\t3\t4", "x\ta\t1", "1\t\t3", "1\t \t3", "1\ta\t-2", "1\ta\tx",
    "1\ta\t", "\ta\t1", "1\t1", "1\t2", " 7 \t b \t 8 ", "+3\ta\t1_0", "1\ta\t99" + "9" * 5000,
    "1\tn0\tx", "1\tn0\t2.5", "a\tgenre\tdrama", "3\tgenre\t",
)
BYTES = b"\t\n\r #-+_0123456789ax \x00\xc3\xa9\xff"


def lines_of(text: str) -> io.StringIO:
    """Split at LF, CR or CRLF and keep the endings, as a file opened with
    `newline=""` does."""
    return io.StringIO(text, newline="")


def random_log_text(rng: random.Random) -> str:
    """A valid action log with repeated (user, action) pairs, comments,
    blank lines, padded action ids and mixed LF/CRLF endings."""
    lines = []
    for _ in range(rng.randint(0, 40)):
        roll = rng.random()
        if roll < 0.1:
            lines.append(rng.choice(("# a comment", "   # indented", "#\t1\ta\t2")))
        elif roll < 0.2:
            lines.append(rng.choice(("", "  ", "\t")))
        elif roll < 0.35 and lines:
            lines.append(rng.choice(lines))  # a duplicate, comment or row
        else:
            action = f"a{rng.randint(0, 5)}"
            if rng.random() < 0.1:
                action = f" {action} "
            lines.append(f"{rng.randint(1, 9)}\t{action}\t{rng.randint(0, 12)}")
    endings = [rng.choice(("\n", "\n", "\r\n")) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, endings))
    if text and rng.random() < 0.3:
        text = text.rstrip("\r\n")
    return text


def random_graph_text(rng: random.Random) -> str:
    arcs = [f"{u}\t{v}" for u in range(1, 8) for v in range(1, 8) if u != v and rng.random() < 0.2]
    return "# follow arcs\n" + "\n".join(arcs) + "\n"


def random_table_text(rng: random.Random, dimension: str) -> str:
    entities = [str(u) for u in range(1, 8)] if dimension == USER else [f"a{i}" for i in range(6)]
    rows = ["#numeric: n0"]
    for e in entities:
        rows.append(f"{e}\tn0\t{rng.randint(0, 50) / 2}")
        rows += [f"{e}\tgenre\tg{rng.randint(0, 3)}" for _ in range(rng.randint(0, 2))]
    return "\n".join(rows) + "\n"


def mutate(rng: random.Random, text: str) -> str:
    """One to three seeded line or byte mutations of `text`."""
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            lines = text.split("\n")
            i = rng.randrange(len(lines))
            op = rng.randrange(5)
            if op == 0:
                del lines[i]
            elif op == 1:
                lines.insert(i, lines[i])
            elif op == 2:
                j = rng.randrange(len(lines))
                lines[i], lines[j] = lines[j], lines[i]
            elif op == 3:
                lines.insert(i, rng.choice(JUNK_LINES))
            else:
                fields = lines[i].split("\t")
                fields[rng.randrange(len(fields))] = rng.choice(("", " ", "x", "-1", "0", "#", "\r", "1 2"))
                lines[i] = "\t".join(fields)
            text = "\n".join(lines)
        else:
            data = bytearray(text.encode("utf-8"))
            byte = rng.choice(BYTES) if rng.random() < 0.8 else rng.randrange(256)
            i = rng.randrange(len(data) + 1)
            op = rng.randrange(3)
            if op == 0 or not data or i == len(data):
                data.insert(i, byte)
            elif op == 1:
                data[i] = byte
            else:
                del data[i]
            text = data.decode("utf-8", errors="replace")
    return text


def outcome(parse, text: str):
    """("ok", result) or ("error", message) for a ParseError; any other
    exception propagates and fails the test."""
    try:
        return "ok", parse(lines_of(text))
    except ParseError as exc:
        assert NAMES_A_LINE.match(str(exc)), str(exc)
        return "error", str(exc)


def log_contents(log, users) -> tuple:
    return (
        len(log),
        log.actions,
        {a: log.performers(a) for a in log.actions},
        {u: log.actions_of(u) for u in users},
    )


def assert_same_log(text: str, seed) -> str:
    """Parse `text` with both action log parsers; they must agree."""
    kind, got = outcome(parse_action_log, text)
    ref_kind, ref = outcome(reference_parse_action_log, text)
    assert kind == ref_kind, (seed, got, ref)
    if kind == "error":
        assert got == ref, seed
    else:
        users = {u for a in ref.actions for u, _ in ref.performers(a)} | {0, 99}
        assert log_contents(got, users) == log_contents(ref, users), seed
    return kind


def test_action_log_matches_per_row_reference():
    covered = Counter()
    for i in range(LOGS):
        rng = random.Random(81_000 + i)
        text = random_log_text(rng)
        assert assert_same_log(text, i) == "ok"
        lines = text.splitlines()
        rows = [tuple(line.split("\t")[:2]) for line in lines if line.strip() and not line.strip().startswith("#")]
        covered["repeated-pair"] += len(rows) > len({(u, a.strip()) for u, a in rows})
        covered["comment"] += any(line.strip().startswith("#") for line in lines)
        covered["blank"] += any(not line.strip() for line in lines)
        covered["crlf"] += "\r\n" in text
    for case in ("repeated-pair", "comment", "blank", "crlf"):
        assert covered[case] >= 20, (case, covered)


def test_mutated_action_logs_match_reference_or_fail_on_a_line():
    kinds = Counter()
    for i in range(MUTANTS):
        rng = random.Random(82_000 + i)
        kinds[assert_same_log(mutate(rng, random_log_text(rng)), i)] += 1
    assert kinds["ok"] >= 50 and kinds["error"] >= 50, kinds


def test_mutated_graphs_and_tables_parse_or_fail_on_a_line():
    parsers = {
        "graph": (random_graph_text, parse_social_graph, SocialGraph),
        USER: (lambda rng: random_table_text(rng, USER), lambda fh: load_attribute_table(fh, USER), AttributeTable),
        ACTION: (lambda rng: random_table_text(rng, ACTION), lambda fh: load_attribute_table(fh, ACTION), AttributeTable),
    }
    for name, (make, parse, result_type) in parsers.items():
        kinds = Counter()
        for i in range(MUTANTS):
            rng = random.Random(f"{name}-{i}")
            kind, result = outcome(parse, mutate(rng, make(rng)))
            if kind == "ok":
                assert isinstance(result, result_type), (name, i)
            kinds[kind] += 1
        assert kinds["ok"] >= 50 and kinds["error"] >= 50, (name, kinds)
