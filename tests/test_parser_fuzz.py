"""The action log, graph and attribute table parsers against their
per-line references on seeded random inputs, and seeded random line and byte
mutations of all three input parsers.

A mutated input must parse to the reference's result or raise a ParseError
that names the line, the reference's exact error; no other exception may
escape.
"""
from __future__ import annotations

import io
import random
import re
from collections import Counter

from conftest import reference_load_attribute_table, reference_parse_action_log, reference_parse_social_graph
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


def random_valid_graph_text(rng: random.Random) -> str:
    """A valid graph with repeated arcs, comments, blank lines, padded or
    signed ids and mixed LF/CRLF endings."""
    lines = []
    for _ in range(rng.randint(0, 40)):
        roll = rng.random()
        if roll < 0.1:
            lines.append(rng.choice(("# a comment", "   # indented", "#\t1\t2")))
        elif roll < 0.2:
            lines.append(rng.choice(("", "  ", "\t\t")))
        elif roll < 0.35 and lines:
            lines.append(rng.choice(lines))
        else:
            u, v = rng.sample(range(1, 10), 2)
            fields = [str(u), str(v)]
            if rng.random() < 0.1:
                i = rng.randrange(2)
                fields[i] = rng.choice((f" {fields[i]} ", f"+{fields[i]}", f"0{fields[i]}"))
            lines.append("\t".join(fields))
    endings = [rng.choice(("\n", "\n", "\r\n")) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, endings))
    if text and rng.random() < 0.3:
        text = text.rstrip("\r\n")
    return text


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


def graph_contents(graph) -> tuple:
    return graph.users, graph.n_arcs, {u: graph.followers(u) for u in graph.users}


def assert_same_graph(text: str, seed) -> str:
    """Parse `text` with both graph parsers; they must agree."""
    kind, got = outcome(parse_social_graph, text)
    ref_kind, ref = outcome(reference_parse_social_graph, text)
    assert kind == ref_kind, (seed, got, ref)
    if kind == "error":
        assert got == ref, seed
    else:
        assert graph_contents(got) == graph_contents(ref), seed
    return kind


def test_graph_matches_per_line_reference():
    covered = Counter()
    for i in range(LOGS):
        rng = random.Random(83_000 + i)
        text = random_valid_graph_text(rng)
        assert assert_same_graph(text, i) == "ok"
        lines = text.splitlines()
        arcs = [line for line in lines if line.strip() and not line.strip().startswith("#")]
        covered["repeated-arc"] += len(arcs) > len(set(arcs))
        covered["comment"] += len(arcs) < len(lines)
        covered["crlf"] += "\r\n" in text
        covered["padded"] += any(" " in a or "+" in a for a in arcs)
    for case in ("repeated-arc", "comment", "crlf", "padded"):
        assert covered[case] >= 20, (case, covered)


def test_mutated_graphs_match_reference_or_fail_on_a_line():
    kinds = Counter()
    for i in range(MUTANTS):
        rng = random.Random(84_000 + i)
        make = random_valid_graph_text if i % 2 else random_graph_text
        kinds[assert_same_graph(mutate(rng, make(rng)), i)] += 1
    assert kinds["ok"] >= 50 and kinds["error"] >= 50, kinds


def random_valid_table_text(rng: random.Random, dimension: str) -> str:
    """A valid attribute table: an optional `#numeric:` header, then rows
    with repeated and multi-valued attributes, empty values, comments
    (also one whose entity starts with `#`), blank and all-tab lines,
    padded or signed ids and mixed LF/CRLF endings."""
    entities = [str(u) for u in range(1, 8)] if dimension == USER else [f"a{i}" for i in range(6)]
    numeric = rng.random() < 0.7
    lines = [rng.choice(("#numeric: n0", "  #numeric: n0, n1", "# numeric:n0"))] if numeric else []
    numbers = {}
    for _ in range(rng.randint(0, 30)):
        roll = rng.random()
        entity = rng.choice(entities)
        if roll < 0.08:
            lines.append(rng.choice(("# a comment", "#\t1\tg", f"#{entity}\tgenre\tg1", " # x\ty\tz")))
        elif roll < 0.16:
            lines.append(rng.choice(("", "  ", "\t\t", "\t \t")))
        elif roll < 0.28 and lines:
            # a numeric row or the header, repeated, would be an error
            lines.append(rng.choice([line for line in lines if "n0" not in line] or [""]))
        elif roll < 0.45 and numeric and entity not in numbers:
            numbers[entity] = rng.choice((str(rng.randint(0, 50) / 2), str(rng.randint(-3, 9)), "1e2"))
            lines.append(f"{entity}\tn0\t{numbers[entity]}")
        else:
            value = rng.choice(("g0", "g1", "g2", "", " g1 "))
            if dimension == USER and rng.random() < 0.1:
                entity = rng.choice((f" {entity} ", f"+{entity}", f"0{entity}"))
            lines.append(f"{entity}\t{rng.choice(('genre', ' genre', 'tag'))}\t{value}")
    if not numeric or rng.random() < 0.5:
        lines = [line for line in lines if "\tn0\t" not in line]
    endings = [rng.choice(("\n", "\n", "\r\n")) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, endings))
    if text and rng.random() < 0.3:
        text = text.rstrip("\r\n")
    return text


def table_contents(table) -> tuple:
    return (
        table.dimension,
        table.numeric,
        table.entities(),
        {e: tuple(table.items(e)) for e in table.entities()},
    )


def assert_same_table(text: str, dimension: str, seed) -> str:
    """Load `text` with both attribute table loaders; they must agree,
    down to the order in which entities and attributes were first seen."""
    kind, got = outcome(lambda fh: load_attribute_table(fh, dimension), text)
    ref_kind, ref = outcome(lambda fh: reference_load_attribute_table(fh, dimension), text)
    assert kind == ref_kind, (seed, got, ref)
    if kind == "error":
        assert got == ref, seed
    else:
        assert table_contents(got) == table_contents(ref), seed
    return kind


def test_tables_match_per_line_reference():
    covered = Counter()
    for i in range(LOGS):
        rng = random.Random(85_000 + i)
        dimension = USER if i % 2 else ACTION
        text = random_valid_table_text(rng, dimension)
        assert assert_same_table(text, dimension, i) == "ok"
        lines = text.splitlines()
        covered["header"] += any(line.strip().startswith("#numeric:") for line in lines)
        covered["hash-entity"] += any(line.startswith("#") and line.count("\t") == 2 for line in lines)
        covered["all-tab"] += any(line and not line.strip() for line in lines)
        covered["empty-value"] += any(line.endswith("\t") for line in lines)
        covered["repeated-row"] += len(lines) > len(set(lines))
        covered["crlf"] += "\r\n" in text
        covered["padded"] += any(line.startswith((" ", "+")) or "\t " in line for line in lines)
    for case in ("header", "hash-entity", "all-tab", "empty-value", "repeated-row", "crlf", "padded"):
        assert covered[case] >= 20, (case, covered)


def test_mutated_tables_match_reference_or_fail_on_a_line():
    kinds = Counter()
    for i in range(MUTANTS):
        rng = random.Random(86_000 + i)
        dimension = USER if i % 2 else ACTION
        make = random_valid_table_text if i % 4 < 2 else random_table_text
        kinds[assert_same_table(mutate(rng, make(rng, dimension)), dimension, i)] += 1
    assert kinds["ok"] >= 50 and kinds["error"] >= 50, kinds
