"""Exact integer and rational linear algebra underlying the reduction passes.

Everything here is arbitrary precision: vectors are tuples of Python ints,
rationals are fractions.Fraction.  No floating point enters any computation.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import chain
from math import gcd, lcm


class DimensionMismatchError(ValueError):
    pass


class SingularBasisError(ValueError):
    pass


class DegenerateHyperplaneError(ValueError):
    """Raised when the vectors meant to span a hyperplane are dependent."""


class DegenerateSublatticeError(ValueError):
    """Raised when a sublattice system is singular."""


def _int(x):
    # operator.index rejects floats instead of silently truncating them
    return operator.index(x)


class Basis:
    """An ordered list of N linearly independent integer vectors of dimension N.

    Rows are the lattice vectors.  Construction validates squareness, integer
    entries and independence (nonzero determinant).
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        if isinstance(rows, Basis):
            self.rows = rows.rows
            return
        rows = tuple(tuple(_int(x) for x in row) for row in rows)
        if not rows:
            raise DimensionMismatchError("empty basis")
        n = len(rows)
        for k, row in enumerate(rows):
            if len(row) != n:
                raise DimensionMismatchError(
                    "row %d has %d coordinates, expected %d" % (k, len(row), n))
        if det(rows) == 0:
            raise SingularBasisError("basis rows are linearly dependent")
        self.rows = rows

    @classmethod
    def _checked_elsewhere(cls, rows):
        """A Basis of rows the caller has shown square, integral and
        nonsingular, built without repeating the checks."""
        b = cls.__new__(cls)
        b.rows = tuple(tuple(r) for r in rows)
        return b

    @property
    def dim(self):
        return len(self.rows)

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, i):
        return self.rows[i]

    def __eq__(self, other):
        if isinstance(other, Basis):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "Basis(%r)" % (list(list(r) for r in self.rows),)


def _as_rows(b):
    if isinstance(b, Basis):
        return b.rows
    return tuple(tuple(_int(x) for x in row) for row in b)


def dot(u, v) -> int:
    """Exact scalar product of two integer vectors."""
    if len(u) != len(v):
        raise DimensionMismatchError("dot of vectors with lengths %d and %d"
                                     % (len(u), len(v)))
    return sum(map(operator.mul, u, v))


def metric_tensor(b):
    """Symmetric matrix of pairwise scalar products of the basis rows."""
    rows = _as_rows(b)
    n = len(rows)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            d = dot(rows[i], rows[j])
            m[i][j] = d
            m[j][i] = d
    return tuple(tuple(r) for r in m)


def _check_symmetric(m):
    n = len(m)
    for row in m:
        if len(row) != n:
            raise DimensionMismatchError("metric tensor is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise ValueError("metric tensor is not symmetric")


def rhombicity(m) -> int:
    """Sum of absolute values of all metric tensor entries.

    Bounded below by the norm sum, with equality exactly for orthogonal
    bases; the reduction passes drive this number down.
    """
    _check_symmetric(m)
    return _rhombicity(m)


def _rhombicity(m):
    """rhombicity without the symmetry check, which would cost about three
    times the sum at n = 12; for metric tensors known to be symmetric."""
    return sum(map(abs, chain.from_iterable(m)))


def norm_sum(m) -> int:
    """Trace of the metric tensor: the sum of squared row norms."""
    _check_symmetric(m)
    return sum(m[i][i] for i in range(len(m)))


def nearest_int(q) -> int:
    """Closest integer to q; exact halves go to the even neighbour.

    Takes ints and Fractions only.  round() is exact for both and already
    implements the tie convention.
    """
    if isinstance(q, float):
        raise TypeError("nearest_int takes exact arguments, not float")
    return round(q)


def _round_ratio(num: int, den: int) -> int:
    # nearest_int(num/den) without building a Fraction; den > 0
    fl, rem = divmod(num, den)
    twice = 2 * rem
    if twice < den:
        return fl
    if twice > den:
        return fl + 1
    return fl + (fl & 1)


class _Singular(Exception):
    pass


def _eliminate(aug, n):
    """Fraction-free (Bareiss) forward elimination over the first n columns.

    Works in place on the n rows of aug, which may carry extra right-hand
    columns.  A row moves only when its pivot vanishes, so a positive
    definite matrix keeps its row order.  Afterwards aug[n-1][n-1] is the
    determinant of the leading n*n block times the returned sign (+1 or -1,
    the parity of the row swaps).  Raises _Singular when that block is
    singular.
    """
    w = len(aug[0]) if n else 0
    sign = 1
    prev = 1
    for k in range(n):
        if aug[k][k] == 0:
            for i in range(k + 1, n):
                if aug[i][k]:
                    aug[k], aug[i] = aug[i], aug[k]
                    sign = -sign
                    break
            else:
                raise _Singular
        row_k = aug[k]
        piv = row_k[k]
        for i in range(k + 1, n):
            row_i = aug[i]
            f = row_i[k]
            for j in range(k + 1, w):
                q, rem = divmod(piv * row_i[j] - f * row_k[j], prev)
                assert rem == 0
                row_i[j] = q
            row_i[k] = 0
        prev = piv
    return sign


def det(matrix) -> int:
    """Determinant of a square integer matrix, by fraction-free elimination."""
    m = [[_int(x) for x in row] for row in matrix]
    n = len(m)
    for row in m:
        if len(row) != n:
            raise DimensionMismatchError("determinant of a non-square matrix")
    try:
        sign = _eliminate(m, n)
    except _Singular:
        return 0
    return sign * m[n - 1][n - 1] if n else 1


def _solve_fraction_free(a, b):
    """Solve a·X = b over the integers: returns (d, nums) with X = nums / d.

    a is n*n ints, b is n*m ints.  Bareiss elimination, then fraction-free
    back substitution.  d is the last pivot, +-det(a), and positive whenever
    a is positive definite; by Cramer's rule every d·X[i][c] is an integer,
    so each division in the back substitution is exact.  Raises _Singular
    when a has no inverse.
    """
    n = len(a)
    if not n:
        return 1, []
    aug = [list(a[i]) + list(b[i]) for i in range(n)]
    _eliminate(aug, n)
    d = aug[n - 1][n - 1]
    nums = [None] * n
    for i in range(n - 1, -1, -1):
        row = aug[i]
        piv = row[i]
        out = []
        for c in range(n, len(row)):
            s = d * row[c]
            for j in range(i + 1, n):
                s -= row[j] * nums[j][c - n]
            q, rem = divmod(s, piv)
            assert rem == 0
            out.append(q)
        nums[i] = out
    return d, nums


def _adjugate(gram):
    """adj(G) = det(G)·G⁻¹ of a Gram matrix of independent rows, in integers.

    Solving G·X = I fraction-free gives X = adj(G) / det(G) directly; the
    denominator is positive because G is positive definite.
    """
    n = len(gram)
    d, adj = _solve_fraction_free(
        gram, [[int(i == j) for j in range(n)] for i in range(n)])
    assert d > 0
    return adj


def _primitive(v):
    """v over the gcd of its entries, first nonzero entry positive."""
    g = gcd(*v)
    if next(x for x in v if x) < 0:
        g = -g
    return tuple(x // g for x in v)


def hyperplane_normal(sub):
    """Primitive integer normal to the hyperplane spanned by N-1 vectors.

    The result is orthogonal to every input vector, has entries with gcd 1,
    and its first nonzero component is positive.
    """
    vecs = [tuple(_int(x) for x in v) for v in sub]
    if not vecs:
        raise DimensionMismatchError("no spanning vectors given")
    n = len(vecs[0])
    if len(vecs) != n - 1:
        raise DimensionMismatchError(
            "need %d vectors of dimension %d, got %d" % (n - 1, n, len(vecs)))
    for v in vecs:
        if len(v) != n:
            raise DimensionMismatchError("mixed vector dimensions")

    # complete the span with a unit row e_k; the first nonsingular
    # completion A gives the normal as the last column of A⁻¹, since
    # A·x = e_last makes x orthogonal to every spanning vector
    rhs = [[0]] * (n - 1) + [[1]]
    for k in range(n):
        unit = tuple(int(j == k) for j in range(n))
        try:
            _, nums = _solve_fraction_free(vecs + [unit], rhs)
        except _Singular:
            continue
        return _primitive([x[0] for x in nums])
    raise DegenerateHyperplaneError("spanning vectors are linearly dependent")


def solve_in_sublattice(cols, target):
    """Coordinates of target in the column span of cols, via the left inverse.

    cols is an N x k integer matrix (k independent columns), target a length-N
    vector of ints or Fractions that must lie in the span.  Solves the normal
    equations (colsT cols) x = colsT target exactly and returns k Fractions;
    raises ValueError when cols · x != target, i.e. target is off the span.
    """
    rows = [tuple(_int(x) for x in r) for r in cols]
    n = len(rows)
    if n == 0:
        raise DimensionMismatchError("empty matrix")
    k = len(rows[0])
    for r in rows:
        if len(r) != k:
            raise DimensionMismatchError("ragged matrix")
    if len(target) != n:
        raise DimensionMismatchError("target length %d, expected %d"
                                     % (len(target), n))
    t = [Fraction(x) for x in target]

    gram = [[sum(rows[i][a] * rows[i][b] for i in range(n)) for b in range(k)]
            for a in range(k)]
    lden = lcm(*(f.denominator for f in t))
    t_int = [int(f * lden) for f in t]
    rhs = [[sum(rows[i][a] * t_int[i] for i in range(n))] for a in range(k)]
    try:
        d, nums = _solve_fraction_free(gram, rhs)
    except _Singular:
        raise DegenerateSublatticeError("columns are linearly dependent") from None
    if any(sum(map(operator.mul, row, (x[0] for x in nums))) != d * ti
           for row, ti in zip(rows, t_int)):
        raise ValueError("target is not in the column span")
    return tuple(Fraction(x[0], d * lden) for x in nums)


def _transpose(m):
    return [list(col) for col in zip(*m)]


def _matmul(a, b):
    bt = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in bt] for row in a]


def lattice_equal(a, b):
    """Whether two bases generate the same lattice.

    Returns (True, Z) with an integer unimodular Z such that a = Z·b, or
    (False, None).  b must be nonsingular.
    """
    ar = _as_rows(a)
    br = _as_rows(b)
    if not ar or not br:
        raise DimensionMismatchError("empty basis")
    if len(ar) != len(br) or any(len(r) != len(br[0]) for r in ar):
        raise DimensionMismatchError("bases of different shapes")
    if det(br) == 0:
        raise SingularBasisError("second basis is singular")
    # a = Z·b  <=>  bT · ZT = aT; bT is invertible after the det check
    d, nums = _solve_fraction_free(_transpose(br), _transpose(ar))
    if any(x % d for row in nums for x in row):
        return False, None
    z = _transpose([[x // d for x in row] for row in nums])
    if abs(det(z)) != 1:
        return False, None
    return True, tuple(tuple(r) for r in z)
