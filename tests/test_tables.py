"""The loop-grown tables: S1, S2, the surjection numbers and (mu|L)_n.

Each table is a list of rows that ``ring.grow`` extends from its last row.
A builder that recursed once per row would need a stack frame per row, so
building every table from its first row to row 300 under a recursion limit
of the current depth plus 60 shows that none of them recurses.
"""

import sys
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
    tables = (sequences._STIRLING1, sequences._STIRLING2, families._SURJECTIONS)
    saved = [list(rows) for rows in tables]
    falling = dict(ring._falling)
    for rows in tables:
        del rows[1:]
    ring._falling.clear()
    yield
    for rows, rows_before in zip(tables, saved):
        rows[:] = rows_before
    ring._falling.clear()
    ring._falling.update(falling)


def test_cold_rows_need_no_stack_depth(cold_tables):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 60)
    try:
        s1 = stirling1(N, 1)
        s2 = stirling2(N, 2)
        surjections = grow(families._SURJECTIONS, N, families._surjection_step)
        falling = falling_product(X, N)
    finally:
        sys.setrecursionlimit(limit)
    assert s1 == (-1) ** (N - 1) * factorial(N - 1)
    assert s2 == 2 ** (N - 1) - 1
    assert surjections[1] == 1 and surjections[N] == factorial(N)
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
