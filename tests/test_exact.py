"""Core exact algebra: frozen examples plus randomized exactness checks."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from cubify import (Basis, DegenerateHyperplaneError, DegenerateSublatticeError,
                    DimensionMismatchError, SingularBasisError, det, dot,
                    hyperplane_normal, lattice_equal, metric_tensor,
                    nearest_int, norm_sum, rhombicity, solve_in_sublattice)
from cubify._state import BasisState
from cubify.exact import _adjugate, _gram, _matmul, _round_ratio

from conftest import B_EXAMPLE, B_EXAMPLE_REDUCED

B_METRIC = ((3, 1, 14), (1, 5, 9), (14, 9, 70))
B_REDUCED_METRIC = ((1, 0, 0), (0, 2, 1), (0, 1, 5))


def test_dot_examples():
    assert dot((1, 1, 1), (-1, 0, 2)) == 1
    assert dot((3, 5, 6), (3, 5, 6)) == 70
    assert dot((), ()) == 0


def test_dot_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        dot((1, 2), (1, 2, 3))


def test_metric_tensor_example():
    assert metric_tensor(B_EXAMPLE) == B_METRIC
    assert metric_tensor(B_EXAMPLE_REDUCED) == B_REDUCED_METRIC


def test_metric_tensor_orthogonal_is_diagonal():
    m = metric_tensor(((2, 0, 0), (0, -3, 0), (0, 0, 1)))
    assert m == ((4, 0, 0), (0, 9, 0), (0, 0, 1))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), k=st.integers(0, 8), n=st.integers(0, 6))
def test_gram_is_the_table_of_scalar_products(data, k, n):
    rows = data.draw(st.lists(
        st.tuples(*[st.integers(-10 ** 30, 10 ** 30)] * n),
        min_size=k, max_size=k))
    assert _gram(rows) == [[dot(u, v) for v in rows] for u in rows]


def test_metric_tensor_validates_and_returns_tuples():
    assert metric_tensor([[1, 2], [3, 4], [0, 1]]) == (
        (5, 11, 2), (11, 25, 4), (2, 4, 1))
    assert metric_tensor(()) == ()
    with pytest.raises(DimensionMismatchError):
        metric_tensor([[1, 2], [3]])
    with pytest.raises(DimensionMismatchError):
        metric_tensor([[1], [2, 3]])
    with pytest.raises(TypeError):
        metric_tensor([[1, 0], [0, 1.0]])


def test_rhombicity_and_norm_sum_examples():
    assert rhombicity(B_METRIC) == 126
    assert norm_sum(B_METRIC) == 78
    assert rhombicity(B_REDUCED_METRIC) == 10
    assert norm_sum(B_REDUCED_METRIC) == 8


def test_rhombicity_rejects_asymmetric():
    with pytest.raises(ValueError):
        rhombicity(((1, 2), (3, 1)))
    with pytest.raises(ValueError):
        norm_sum(((1, 2), (3, 1)))


def test_rhombicity_bounds_norm_sum():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(2, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if det(rows) == 0:
            continue
        m = metric_tensor(rows)
        assert rhombicity(m) >= norm_sum(m)
    # equality exactly for orthogonal rows
    m = metric_tensor(((3, 0), (0, -2)))
    assert rhombicity(m) == norm_sum(m) == 13


def _sorted_by_norm(rows):
    # the passes sort through the working state, which must stay consistent
    state = BasisState(rows)
    state.sort_by_norm()
    assert state.consistent()
    return tuple(tuple(r) for r in state.rows)


def test_sort_by_norm():
    assert _sorted_by_norm(((3, 5, 6), (1, 1, 1), (-1, 0, 2))) == B_EXAMPLE


def test_sort_by_norm_is_stable():
    # equal squared norms keep their input order; the pinned output digests
    # rely on it
    assert _sorted_by_norm(((0, 2, 1), (2, 1, 0), (1, 1, 1))) == \
        ((1, 1, 1), (0, 2, 1), (2, 1, 0))


def test_nearest_int_examples():
    assert nearest_int(Fraction(7, 2)) == 4
    assert nearest_int(Fraction(-5, 3)) == -2
    assert nearest_int(Fraction(1, 2)) == 0
    assert nearest_int(Fraction(-1, 2)) == 0
    assert nearest_int(Fraction(3, 2)) == 2
    assert nearest_int(Fraction(-3, 2)) == -2
    assert nearest_int(7) == 7
    assert nearest_int(0) == 0


def test_nearest_int_rejects_float():
    with pytest.raises(TypeError):
        nearest_int(0.5)


def test_nearest_int_properties():
    rng = random.Random(11)
    for _ in range(500):
        num = rng.randint(-400, 400)
        den = rng.randint(1, 40)
        q = Fraction(num, den)
        z = nearest_int(q)
        assert abs(q - z) <= Fraction(1, 2)
        assert _round_ratio(num, den) == z


def test_hyperplane_normal_examples():
    # sign convention: first nonzero component positive
    assert hyperplane_normal(((1, 0, 1), (-1, 0, 2))) == (0, 1, 0)
    assert hyperplane_normal(((1, 0, 0), (0, 1, 0))) == (0, 0, 1)
    assert hyperplane_normal(((2, 0),)) == (0, 1)
    assert hyperplane_normal(((0, 3),)) == (1, 0)


def test_hyperplane_normal_is_primitive():
    assert hyperplane_normal(((2, 0, 0), (0, 2, 0))) == (0, 0, 1)
    assert hyperplane_normal(((6, 0, 0), (0, 10, 0))) == (0, 0, 1)


def test_hyperplane_normal_degenerate():
    with pytest.raises(DegenerateHyperplaneError):
        hyperplane_normal(((1, 2, 3), (2, 4, 6)))


def test_hyperplane_normal_shape_errors():
    with pytest.raises(DimensionMismatchError):
        hyperplane_normal(((1, 0, 0),))


def test_hyperplane_normal_random_orthogonality():
    from math import gcd
    rng = random.Random(23)
    done = 0
    while done < 240:
        # entries up to 9, then up to 40 digits
        bound = 9 if done < 120 else 10 ** 40
        n = rng.randrange(2, 8)
        sub = [[rng.randint(-bound, bound) for _ in range(n)]
               for _ in range(n - 1)]
        try:
            p = hyperplane_normal(sub)
        except DegenerateHyperplaneError:
            continue
        for v in sub:
            assert dot(p, v) == 0
        g = 0
        for x in p:
            g = gcd(g, x)
        assert g == 1
        assert next(x for x in p if x) > 0
        done += 1


def test_solve_in_sublattice_examples():
    # columns [1,0,1] and [-1,0,2], target their sum
    cols = ((1, -1), (0, 0), (1, 2))
    assert solve_in_sublattice(cols, (0, 0, 3)) == (Fraction(1), Fraction(1))
    cols = ((1, 0), (0, 1), (0, 0))
    got = solve_in_sublattice(cols, (Fraction(5, 2), -1, 0))
    assert got == (Fraction(5, 2), Fraction(-1))


def test_solve_in_sublattice_rejects_a_target_off_the_span():
    # the least-squares coordinates of (2, 1) over the column (1, 0) are 2
    with pytest.raises(ValueError, match="span"):
        solve_in_sublattice([[1], [0]], [2, 1])
    with pytest.raises(ValueError, match="span"):
        solve_in_sublattice(((1, 0), (0, 1), (0, 0)),
                            (Fraction(5, 2), -1, Fraction(1, 3)))
    assert solve_in_sublattice([[1], [0]], [2, 0]) == (Fraction(2),)


def test_solve_in_sublattice_degenerate():
    with pytest.raises(DegenerateSublatticeError):
        solve_in_sublattice(((1, 2), (2, 4), (0, 0)), (1, 2, 0))


def test_solve_in_sublattice_round_trip():
    rng = random.Random(31)
    done = 0
    while done < 120:
        # entries up to 8, then up to 40 digits
        bound = 8 if done < 60 else 10 ** 40
        n = rng.randrange(2, 7)
        vecs = [[rng.randint(-bound, bound) for _ in range(n)]
                for _ in range(n - 1)]
        cols = [[v[i] for v in vecs] for i in range(n)]
        coeffs = [Fraction(rng.randint(-20, 20), rng.randint(1, 6))
                  for _ in range(n - 1)]
        target = [sum(c * v[i] for c, v in zip(coeffs, vecs)) for i in range(n)]
        try:
            got = solve_in_sublattice(cols, target)
        except DegenerateSublatticeError:
            continue
        assert list(got) == coeffs
        done += 1


def test_det_examples():
    assert det(B_EXAMPLE) == -3
    assert det(B_METRIC) == 9      # the squared determinant of the basis
    assert det(((1, 0), (0, 1))) == 1
    assert det(((0, 1), (1, 0))) == -1
    assert det(((1, 2), (2, 4))) == 0
    assert det(((5,),)) == 5


def test_det_against_cofactor_expansion():
    def cofactor_det(m):
        if len(m) == 1:
            return m[0][0]
        total = 0
        for j, x in enumerate(m[0]):
            if x:
                minor = [row[:j] + row[j + 1:] for row in m[1:]]
                total += (-1) ** j * x * cofactor_det(minor)
        return total

    rng = random.Random(41)
    for _ in range(40):
        n = rng.randrange(1, 6)
        m = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(n)]
        assert det(m) == cofactor_det(m)
    # sparse draws often put a zero on the diagonal, forcing pivot swaps
    rng = random.Random(43)
    nonsingular = 0
    while nonsingular < 60:
        n = rng.randrange(1, 6)
        m = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)]
             for _ in range(n)]
        d = det(m)
        assert d == cofactor_det(m)
        nonsingular += d != 0


ADJUGATE_ENTRIES = {"up to 100": st.integers(-100, 100),
                    "up to 10^100": st.integers(-10 ** 100, 10 ** 100)}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 12),
       entries=st.sampled_from(sorted(ADJUGATE_ENTRIES)))
def test_adjugate_matches_the_general_solve(data, n, entries):
    # the symmetric kernel is the oracle of the carried-adjugate tests; a
    # general solve of G·X = det(G)·I has one answer for a nonsingular G
    row = st.lists(ADJUGATE_ENTRIES[entries], min_size=n, max_size=n)
    rows = data.draw(st.lists(row, min_size=n, max_size=n))
    assume(det(rows) != 0)
    gram = _gram(rows)
    adj = _adjugate(gram)
    d = det(gram)
    assert _matmul(gram, adj) == [[d * (i == j) for j in range(n)]
                                  for i in range(n)]


@pytest.mark.parametrize("gram, adj", [
    ([[7]], [[1]]),
    ([[2, 1], [1, 3]], [[3, -1], [-1, 2]]),
    ([[5, -2], [-2, 1]], [[1, 2], [2, 5]]),
])
def test_adjugate_small_cases(gram, adj):
    assert _adjugate(gram) == adj


@pytest.mark.parametrize("gram", [[[1, 2], [2, 1]], [[0, 1], [1, 0]],
                                  [[-1]]])
def test_adjugate_rejects_a_matrix_that_is_not_positive_definite(gram):
    # symmetric, nonsingular, but with a pivot <= 0
    with pytest.raises(AssertionError):
        _adjugate(gram)


def test_lattice_equal_example():
    ok, z = lattice_equal(B_EXAMPLE, B_EXAMPLE_REDUCED)
    assert ok
    assert z == ((1, 1, 0), (0, 0, 1), (5, 4, 1))
    assert det(z) == 1


def test_lattice_equal_rejects_sublattice():
    ok, z = lattice_equal(((2, 0), (0, 2)), ((1, 0), (0, 1)))
    assert (ok, z) == (False, None)
    ok, z = lattice_equal(((1, 0), (0, 1)), ((2, 0), (0, 2)))
    assert (ok, z) == (False, None)


def test_lattice_equal_permutation_and_sign():
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randrange(2, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if det(rows) == 0:
            continue
        order = list(range(n))
        rng.shuffle(order)
        other = [[-x for x in rows[i]] if rng.random() < 0.5 else rows[i][:]
                 for i in order]
        ok, z = lattice_equal(rows, other)
        assert ok and abs(det(z)) == 1


def test_lattice_equal_singular_second_argument():
    with pytest.raises(SingularBasisError):
        lattice_equal(((1, 0), (0, 1)), ((1, 2), (2, 4)))


@pytest.mark.parametrize("a, b", [((), ()), ((), ((1,),)), (((1,),), ()),
                                  (((1, 0), (0, 1)), ((1,),)),
                                  (((1, 0), (0,)), ((1, 0), (0, 1)))])
def test_lattice_equal_rejects_empty_or_mismatched_bases(a, b):
    with pytest.raises(DimensionMismatchError):
        lattice_equal(a, b)


ENTRIES = {"small": st.integers(-6, 6),
           "30 digits": st.integers(-10 ** 30, 10 ** 30)}


@st.composite
def unimodular(draw, n):
    """A row permutation of I_N, then row additions and negations."""
    order = draw(st.permutations(range(n)))
    z = [[int(i == j) for j in range(n)] for i in order]
    idx = st.integers(0, n - 1)
    for i, j, k in draw(st.lists(st.tuples(idx, idx, st.integers(-3, 3)),
                                 max_size=3 * n)):
        if i == j:
            z[i] = [-x for x in z[i]]
        else:
            z[i] = [x + k * y for x, y in zip(z[i], z[j])]
    return z


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 6), entries=st.sampled_from(sorted(ENTRIES)),
       data=st.data())
def test_lattice_equal_decides_by_the_change_of_basis(n, entries, data):
    row = st.lists(ENTRIES[entries], min_size=n, max_size=n)
    b = data.draw(st.lists(row, min_size=n, max_size=n), label="b")
    assume(det(b) != 0)
    z = data.draw(unimodular(n), label="z")
    a = _matmul(z, b)
    assert lattice_equal(a, b) == (True, tuple(map(tuple, z)))
    # an integral z with |det z| >= 2: a spans a proper sublattice
    k = data.draw(st.sampled_from((-3, -2, 2, 5)), label="k")
    r = data.draw(st.integers(0, n - 1), label="scaled row")
    scaled = [[k * x for x in zr] if i == r else zr for i, zr in enumerate(z)]
    assert lattice_equal(_matmul(scaled, b), b) == (False, None)
    # a = (z / k)·(k·b): z / k is not integral, since every row of a
    # unimodular matrix has coprime entries
    assert lattice_equal(a, [[k * x for x in br] for br in b]) == (False, None)
    # a singular second basis: its last row a combination of the others
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=n - 1,
                                max_size=n - 1), label="combination")
    last = [sum(c * br[j] for c, br in zip(coeffs, b)) for j in range(n)]
    with pytest.raises(SingularBasisError):
        lattice_equal(a, b[:-1] + [last])


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 6), entries=st.sampled_from(sorted(ENTRIES)),
       data=st.data())
def test_the_geometry_helpers_do_not_trust_the_adjugate_kernel(n, entries,
                                                               data):
    row = st.lists(ENTRIES[entries], min_size=n, max_size=n)
    b = data.draw(st.lists(row, min_size=n, max_size=n), label="b")
    assume(det(b) != 0)
    z = data.draw(unimodular(n), label="z")
    a = _matmul(z, b)
    normal = hyperplane_normal(b[:-1])
    cols = [list(c) for c in zip(*b[:-1])]
    halves = data.draw(st.lists(st.integers(-5, 5), min_size=n - 1,
                                max_size=n - 1), label="2·coordinates")
    coords = tuple(Fraction(h, 2) for h in halves)
    target = [sum(c * x for c, x in zip(coords, row)) for row in cols]
    assert solve_in_sublattice(cols, target) == coords

    # each patch replaces cubify.exact._adjugate; _adjugate here is still
    # the real kernel
    # columns 0 and 1 swapped: Z·P for the swap P, integral and
    # unimodular, so only the certificate Z·b == a can catch it
    def swapped(gram):
        return [[r[1], r[0]] + r[2:] for r in _adjugate(gram)]

    # one entry off: Z may come out integral, never certified wrongly
    def nudged(gram):
        return [[x + (i == j == 0) for j, x in enumerate(r)]
                for i, r in enumerate(_adjugate(gram))]

    with mock.patch("cubify.exact._adjugate", swapped):
        with pytest.raises(AssertionError):
            lattice_equal(a, b)
    with mock.patch("cubify.exact._adjugate", nudged):
        try:
            ok, got = lattice_equal(a, b)
        except AssertionError:
            pass
        else:
            assert not ok or _matmul(got, b) == a

    def broken(gram):
        raise RuntimeError("adjugate kernel called")

    # the shear kernel's oracle is built on these two helpers, so neither
    # may call the kernel it checks
    with mock.patch("cubify.exact._adjugate", broken):
        assert hyperplane_normal(b[:-1]) == normal
        assert solve_in_sublattice(cols, target) == coords


def test_basis_validation():
    with pytest.raises(SingularBasisError):
        Basis(((1, 2), (2, 4)))
    with pytest.raises(DimensionMismatchError):
        Basis(((1, 2, 3), (4, 5, 6)))
    with pytest.raises(TypeError):
        Basis(((1.5, 0), (0, 1)))
    with pytest.raises(DimensionMismatchError):
        Basis(())
    b = Basis([[1, 0], [0, 1]])
    assert b.dim == 2 and b[0] == (1, 0) and list(b) == [(1, 0), (0, 1)]
