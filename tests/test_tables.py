"""The loop-grown tables: S1, S2, (mu|L)_n and the Kaneko rows.

Each Stirling or falling-factorial table is a list of rows that
``ring.grow`` extends from its last row, and a Kaneko row grows along its
last anti-diagonal.  A builder that recursed once per row would need a
stack frame per row, so building every table from its first row to row 300
under a recursion limit of the current depth plus 60 shows that none of
them recurses.
"""

import sys
from fractions import Fraction
from math import factorial

import pytest

from fdpb import families, ring, sequences
from fdpb.ring import LAM, X, falling_product, grow
from fdpb.sequences import stirling1, stirling2

N = 300


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.fixture
def cold_tables():
    """Every table cut back to its first row, and restored afterwards."""
    tables = (sequences._STIRLING1, sequences._STIRLING2)
    saved = [list(rows) for rows in tables]
    memos = (ring._falling, families._KANEKO)
    saved_memos = [dict(memo) for memo in memos]
    for rows in tables:
        del rows[1:]
    for memo in memos:
        memo.clear()
    yield
    for rows, rows_before in zip(tables, saved):
        rows[:] = rows_before
    for memo, memo_before in zip(memos, saved_memos):
        memo.clear()
        memo.update(memo_before)


def test_cold_rows_need_no_stack_depth(cold_tables):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 60)
    try:
        s1 = stirling1(N, 1)
        s2 = stirling2(N, 2)
        kaneko, den = families._kaneko_row(2, N)
        falling = falling_product(X, N)
    finally:
        sys.setrecursionlimit(limit)
    assert s1 == (-1) ** (N - 1) * factorial(N - 1)
    assert s2 == 2 ** (N - 1) - 1
    assert Fraction(kaneko[1], den) == Fraction(1, 4) and len(kaneko) == N + 1
    assert falling.coeff(0, N) == 1
    assert falling.coeff(N - 1, 1) == (-1) ** (N - 1) * factorial(N - 1)
    assert falling == falling_product(X, N - 1) * (X - LAM * (N - 1))


def test_grow_appends_the_missing_rows_in_order():
    rows = [1]
    assert grow(rows, 4, lambda prev, i: prev * i) == 24
    assert rows == [1, 1, 2, 6, 24]
    assert grow(rows, 2, None) == 2  # a built row is read back, not rebuilt


def test_grow_has_no_negative_rows():
    with pytest.raises(ValueError):
        grow([1], -1, lambda prev, i: prev)
