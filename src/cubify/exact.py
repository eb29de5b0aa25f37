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


def _gram(rows):
    """Metric tensor of integer rows of equal length, as a list of lists.

    Forms each scalar product once, for the pairs j >= i, with one
    sum(map(mul, ...)) at C speed, and copies the entries below the
    diagonal from the rows above.  No validation: metric_tensor checks
    its input and then calls this.
    """
    g = []
    for i, u in enumerate(rows):
        g.append([row[i] for row in g] +
                 [sum(map(operator.mul, u, v)) for v in rows[i:]])
    return g


def metric_tensor(b):
    """Symmetric matrix of pairwise scalar products of the basis rows."""
    rows = _as_rows(b)
    for row in rows:
        if len(row) != len(rows[0]):
            raise DimensionMismatchError("rows with lengths %d and %d"
                                         % (len(rows[0]), len(row)))
    return tuple(map(tuple, _gram(rows)))


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
    return _trace(m)


def _trace(m):
    """norm_sum without the symmetry check."""
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


def det(matrix) -> int:
    """Determinant of a square integer matrix, by fraction-free elimination."""
    m = [[_int(x) for x in row] for row in matrix]
    n = len(m)
    for row in m:
        if len(row) != n:
            raise DimensionMismatchError("determinant of a non-square matrix")
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        row_k = m[k]
        piv = row_k[k]
        for i in range(k + 1, n):
            row_i = m[i]
            f = row_i[k]
            for j in range(k + 1, n):
                q, rem = divmod(piv * row_i[j] - f * row_k[j], prev)
                assert rem == 0
                row_i[j] = q
        prev = piv
    return sign * m[n - 1][n - 1] if n else 1


def _adjugate(gram):
    """adj(G) = det(G)·G⁻¹ of a Gram matrix of independent rows, in integers.

    Solves G·X = I by fraction-free (Bareiss) elimination of [G | I] and
    back substitution, with about 3/8 of the multiplications of a general
    Bareiss solve of [G | I], because three blocks are symmetric or
    triangular:

    - the trailing block of G after each step is symmetric (its entries
      are the minors of G on rows {0..k, i} and columns {0..k, j}), so
      only the entries j >= i are formed, and a[i][k] is read as a[k][i];
    - the right-hand block is lower triangular, its row i zero beyond
      column i and equal to the last pivot at column i, so only the
      columns < i are kept;
    - the result X·det(G) = adj(G) is symmetric, so back substitution
      forms only the columns c <= i of row i and reads the rest from the
      rows below.

    Every quotient is the one a general Bareiss solve forms, so each
    division is exact (asserted).  G is positive definite, so every pivot,
    a leading principal minor, is positive (asserted) and no row moves;
    the last pivot is det(G).
    """
    n = len(gram)
    # u[i]: row i of the eliminated G from column i on; low[i]: columns
    # < i of row i of the right-hand block
    u = [list(row[i:]) for i, row in enumerate(gram)]
    low = [[] for _ in range(n)]
    prev = 1
    for k in range(n):
        uk = u[k]
        piv = uk[0]
        assert piv > 0
        lk = low[k]
        for i in range(k + 1, n):
            f = uk[i - k]
            new = []
            for x, y in zip(u[i], uk[i - k:]):
                q, rem = divmod(piv * x - f * y, prev)
                assert rem == 0
                new.append(q)
            u[i] = new
            new = []
            for x, y in zip(low[i], lk):
                q, rem = divmod(piv * x - f * y, prev)
                assert rem == 0
                new.append(q)
            # column k: (piv·0 - f·prev) / prev
            new.append(-f)
            low[i] = new
        prev = piv
    d = prev
    # col[c]: column c of adj(G) from the bottom row up, as far as formed
    col = [[] for _ in range(n)]
    for i in range(n - 1, -1, -1):
        ui = u[i]
        piv = ui[0]
        # right-hand row i: low[i], then at column i the pivot of step i - 1
        rhs = low[i] + [u[i - 1][0] if i else 1]
        # a[i][j] for j from n - 1 down to i + 1, in col[c]'s order
        right = ui[:0:-1]
        for c in range(i + 1):
            cc = col[c]
            q, rem = divmod(d * rhs[c] - sum(map(operator.mul, right, cc)),
                            piv)
            assert rem == 0
            cc.append(q)
    # row c is adj[c][j] = adj[j][c] for j < c, then column c top down
    return [[col[j][n - 1 - c] for j in range(c)] + col[c][::-1]
            for c in range(n)]


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

    # generalized cross product: p·v is ±det of the vectors with v appended
    # as a row, expanded along that row, so p is orthogonal to every
    # spanning vector and vanishes exactly when they are dependent
    p = [(-1) ** j * det([v[:j] + v[j + 1:] for v in vecs]) for j in range(n)]
    if not any(p):
        raise DegenerateHyperplaneError("spanning vectors are linearly dependent")
    return _primitive(p)


def solve_in_sublattice(cols, target):
    """Coordinates of target in the column span of cols, via the left inverse.

    cols is an N x k integer matrix (k independent columns), target a length-N
    vector of ints or Fractions that must lie in the span.  Solves the normal
    equations (colsT cols) x = colsT target exactly, by Cramer's rule, and
    returns k Fractions; raises ValueError when cols · x != target, i.e.
    target is off the span.
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

    columns = list(zip(*rows))
    gram = _gram(columns)
    d = det(gram)
    if d == 0:
        raise DegenerateSublatticeError("columns are linearly dependent")
    lden = lcm(*(f.denominator for f in t))
    t_int = [int(f * lden) for f in t]
    rhs = [sum(map(operator.mul, c, t_int)) for c in columns]
    # x[a]·d is det(G) with column a replaced by colsT·t, and G is
    # symmetric, so with row a replaced
    nums = [det(gram[:a] + [rhs] + gram[a + 1:]) for a in range(k)]
    if any(sum(map(operator.mul, row, nums)) != d * ti
           for row, ti in zip(rows, t_int)):
        raise ValueError("target is not in the column span")
    return tuple(Fraction(x, d * lden) for x in nums)


def _matmul(a, b):
    bt = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in bt] for row in a]


def lattice_equal(a, b):
    """Whether two bases generate the same lattice.

    Returns (True, Z) with an integer unimodular Z such that a = Z·b, or
    (False, None).  b must be nonsingular.  Z is read off the adjugate of
    b·bT, and every True verdict is certified by Z·b == a.
    """
    ar = _as_rows(a)
    br = _as_rows(b)
    if not ar or not br:
        raise DimensionMismatchError("empty basis")
    if len(ar) != len(br) or any(len(r) != len(br[0]) for r in ar):
        raise DimensionMismatchError("bases of different shapes")
    d = det(br)
    if d == 0:
        raise SingularBasisError("second basis is singular")
    # Z = a·b⁻¹ = a·bT·adj(b·bT) / det(b·bT), and det(b·bT) = det(b)²
    d *= d
    abt = [[sum(map(operator.mul, u, v)) for v in br] for u in ar]
    nums = _matmul(abt, _adjugate(_gram(br)))
    if any(x % d for row in nums for x in row):
        return False, None
    z = [[x // d for x in row] for row in nums]
    if abs(det(z)) != 1:
        return False, None
    if _matmul(z, br) != [list(r) for r in ar]:
        raise AssertionError("change of basis does not map b onto a")
    return True, tuple(map(tuple, z))
