"""The line-coverage gate's statement selection and allow list."""
from __future__ import annotations

import pytest

from linecov import ALLOW, function_statements, read_allow

SOURCE = '''\
def f(x):
    """A docstring marks no line."""
    global G
    try:
        y = (x +
             1)
    except ValueError:
        pass
    if x: return y
    for i in (
        1, 2):
        G = i

    @staticmethod
    def g():
        return 1

    class C:
        z = 1
    return C


class K:
    a = 1

    def m(self):
        return self.a
'''


def test_function_statements_are_the_marked_body_lines():
    assert function_statements(SOURCE) == {
        5: range(5, 7),  # all of a simple statement
        8: range(8, 9),
        9: range(9, 10),  # a one-line compound statement: its head
        10: range(10, 12),
        12: range(12, 13),
        16: range(16, 17),  # the decorated `def` is left out, not its body
        18: range(18, 19),  # a class statement counts, its body does not
        20: range(20, 21),
        27: range(27, 28),
    }


def test_allow_list_needs_a_reason():
    assert read_allow("# note\n\nminer.py:3 runs only on Windows\n") == {"miner.py:3": "runs only on Windows"}
    with pytest.raises(ValueError, match="miner.py:3 gives no reason"):
        read_allow("miner.py:3\n")
    read_allow(ALLOW.read_text(encoding="utf-8"))
