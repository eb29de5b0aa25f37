"""Exact LLL: orthogonalization examples and reduction post-conditions.

The reducer carries its Gram-Schmidt data incrementally through swaps; every
post-condition here is checked with a from-scratch gram_schmidt() of the
output, so any drift in the incremental updates shows up immediately.
"""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cubify import (Basis, SingularBasisError, det, gram_schmidt,
                    lattice_equal, lll_reduce, metric_tensor, norm_sum)
from cubify.cubifier import transform_problems
from cubify.lll import _lll

from _helpers import best_s_in_box, random_basis, random_unimodular
from conftest import B_EXAMPLE
from test_bit_identity import PINNED, _input

#: SHA-256 of repr(tuple of lll_reduce(b, alpha).rows for alpha 3/4, 99/100
#: and 1) on the inputs pinned for cubify in test_bit_identity; a change to
#: how LLL is computed must leave its outputs unchanged
LLL_PINNED = {
    "columnar-10": "e18dc4c90f2ee56663eb38547db382d1711e7eb1d125a2759c7b1f5f57781d93",
    "columnar-12": "a3b608c066ec1f2d50f9b4a18d35ecbfa35b49b2768216f044143eaa91915e89",
    "columnar-16": "b748da93d6444bc829974aba52b7cd631f06973b7c81b831319ff132ce040d82",
    "columnar-4-bigint": "4572843405a34ca5cbfbf5d945c24992a6e5df206f2afacba7d9702774f7f4d0",
    "columnar-5": "ac3f096745381551deb2a9e68ee19b14865bfbf3efd0eb5b8c4c97488acc6a37",
    "full-10": "e214731c7351c593ef983c5f628f481bfb32db62e4ebe59c4f71a96fb025f5b5",
    "full-12": "db9e3628dfd2aa077eff9f1c4859dd7051a7eee9613779a468932bfe7d24968b",
    "full-5": "b595ee5cf5e3fc57d688ef55385bda1dd0eb7076902ded19f73f2432fd641ce4",
    "het20": "e574eb37ceed8378f6988ccb503c1a357fce6ca2728070d0e49d74e474efea85",
}


def test_gram_schmidt_examples():
    gs = gram_schmidt(((1, 0), (1, 1)))
    assert gs.star == ((1, 0), (0, 1))
    assert gs.mu[1] == (Fraction(1),)
    gs = gram_schmidt(((2, 0), (1, 3)))
    assert gs.star == ((2, 0), (0, 3))
    assert gs.mu[1] == (Fraction(1, 2),)
    assert gs.star_norms == (4, 9)


def test_gram_schmidt_properties():
    rng = random.Random(301)
    for _ in range(25):
        n = rng.randrange(2, 6)
        b = random_basis(n, rng)
        gs = gram_schmidt(b)
        assert gs.star[0] == tuple(Fraction(x) for x in b.rows[0])
        for i in range(n):
            for j in range(i):
                assert sum(a * c for a, c in zip(gs.star[i], gs.star[j])) == 0
        # rows reconstruct from star vectors and coefficients
        for k in range(n):
            acc = list(gs.star[k])
            for j in range(k):
                acc = [a + gs.mu[k][j] * s for a, s in zip(acc, gs.star[j])]
            assert tuple(acc) == tuple(Fraction(x) for x in b.rows[k])


def test_lll_identity_unchanged():
    eye = tuple(tuple(1 if i == j else 0 for j in range(5)) for i in range(5))
    assert lll_reduce(eye).rows == eye


def test_lll_worked_example():
    out = lll_reduce(B_EXAMPLE)
    s = norm_sum(metric_tensor(out))
    assert s <= 10
    # the exhaustive box oracle says 8 is the best reachable norm sum
    assert s == best_s_in_box(Basis(B_EXAMPLE), 10) == 8
    ok, _ = lattice_equal(B_EXAMPLE, out)
    assert ok


def _check_post_conditions(rows, alpha):
    gs = gram_schmidt(rows)
    n = len(gs.mu)
    for k in range(n):
        for j in range(k):
            assert abs(gs.mu[k][j]) <= Fraction(1, 2)
    for k in range(1, n):
        m = gs.mu[k][k - 1]
        assert gs.star_norms[k] >= (alpha - m * m) * gs.star_norms[k - 1]


def test_lll_post_conditions():
    rng = random.Random(307)
    for trial in range(30):
        n = rng.randrange(2, 7)
        b = random_basis(n, rng) if trial % 2 else Basis(random_unimodular(n, rng))
        alpha = (Fraction(3, 4), Fraction(1), Fraction(26, 100))[trial % 3]
        out = lll_reduce(b, alpha)
        _check_post_conditions(out, alpha)
        ok, _ = lattice_equal(b, out)
        assert ok
        assert abs(det(out.rows)) == abs(det(b.rows))


SMALL = st.integers(-20, 20)
BIG = st.builds(lambda sign, mag: sign * mag, st.sampled_from((1, -1)),
                st.integers(10 ** 99, 10 ** 100 - 1))


@st.composite
def bases(draw):
    n = draw(st.integers(1, 8))
    entry = draw(st.sampled_from((SMALL, BIG, st.one_of(SMALL, BIG))))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    assume(det(rows) != 0)
    return rows


@settings(max_examples=60, deadline=None)
@given(rows=bases(),
       alpha=st.sampled_from((Fraction(3, 4), Fraction(99, 100), Fraction(1))))
def test_lll_transform_certifies_the_output(rows, alpha):
    reduced, t = _lll(rows, alpha)
    assert reduced == lll_reduce(rows, alpha)
    assert transform_problems(rows, reduced, t) == []
    # the independent oracle finds the same (unique) change of basis
    assert lattice_equal(reduced, rows) == (True, t)


def test_lll_idempotent():
    rng = random.Random(311)
    for _ in range(15):
        b = random_basis(rng.randrange(2, 6), rng)
        once = lll_reduce(b)
        assert lll_reduce(once) == once


def test_lll_alpha_validation():
    with pytest.raises(ValueError):
        lll_reduce(((1, 0), (0, 1)), Fraction(1, 4))
    with pytest.raises(ValueError):
        lll_reduce(((1, 0), (0, 1)), Fraction(5, 4))
    with pytest.raises(ValueError):
        lll_reduce(((1, 0), (0, 1)), 0)


def test_lll_rejects_singular():
    with pytest.raises(SingularBasisError):
        lll_reduce(((1, 2), (2, 4)))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_lll_output_digest_is_pinned(name):
    b = _input(name)
    outs = tuple(lll_reduce(b, alpha).rows
                 for alpha in (Fraction(3, 4), Fraction(99, 100), Fraction(1)))
    digest = hashlib.sha256(repr(outs).encode()).hexdigest()
    assert digest == LLL_PINNED[name]
