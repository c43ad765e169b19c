"""The series families' coefficient readers against the full products.

``family_reference`` keeps the bodies ``fdpb.families`` used before each
family was split into an argument-free quotient series and a reader of
one coefficient: the whole quotient times the whole argument series,
read at n.  Every value must be the same polynomial, and it must not
depend on the order in which values are asked for, since the longest
quotient series built so far serves every smaller n.
"""

import random
from fractions import Fraction

import pytest

import family_reference as ref
from fdpb import families as fam
from fdpb import fps, sequences
from fdpb.ring import LAM, X

N_MAX = 30
ARGS = (0, 1, -1, Fraction(1, 2), X, -LAM, X + LAM)
K_RANGE = range(-3, 4)
ROUTES = [(name, None) for name in ("bernoulli_poly", "carlitz_beta", "daehee_type_b")]
ROUTES += [(name, k) for name in ("classical_poly_bernoulli", "fdpb_gf") for k in K_RANGE]


def _value(module, name, k, n, arg):
    route = getattr(module, name)
    return route(n, arg) if k is None else route(n, k, arg)


@pytest.mark.parametrize("name, k", ROUTES)
def test_reader_matches_full_product(name, k):
    for arg in ARGS:
        for n in range(N_MAX + 1):
            assert _value(fam, name, k, n, arg) == _value(ref, name, k, n, arg), (n, arg)


def _fresh_caches():
    fps._longest.clear()
    for module in (fam, sequences):
        for f in vars(module).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()


def _take(calls):
    _fresh_caches()
    return {call: _value(fam, *call) for call in calls}


def test_values_do_not_depend_on_call_order():
    # every family, two k each, in one cache: a memo that mixed up keys,
    # or served a series shorter than n, would show in one of the orders
    calls = [
        (name, k2 if k is not None else None, n, arg)
        for name, k in ROUTES if k in (None, 0)
        for k2 in (-2, 3)
        for n in range(N_MAX + 1)
        for arg in (0, X + LAM)
    ]
    calls = list(dict.fromkeys(calls))
    descending = sorted(calls, key=lambda c: -c[2])
    ascending = sorted(calls, key=lambda c: c[2])
    shuffled = random.Random(0).sample(calls, len(calls))
    first = _take(descending)
    assert _take(ascending) == first
    assert _take(shuffled) == first
