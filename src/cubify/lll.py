"""Exact-arithmetic LLL baseline.

Textbook LLL with rational Gram-Schmidt data carried incrementally through
size reductions and swaps.  The steps act on the unimodular row transform h,
not on the rows, and the output is formed once as h · input, so h certifies
that it spans the input lattice.  Everything is fractions.Fraction, so the
Lovasz condition and the size-reduction bound are decided exactly, never by
floating-point proxy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import Basis, _matmul, dot


@dataclass(frozen=True)
class GramSchmidtState:
    """Orthogonalization of a basis: star vectors and projection coefficients.

    star[k] is b_k minus its projections onto the earlier star vectors;
    mu[k][j] = (b_k · star[j]) / (star[j] · star[j]) for j < k (rows are
    ragged).  star_norms[k] is star[k]'s squared norm.
    """
    star: tuple
    mu: tuple
    star_norms: tuple


def gram_schmidt(b) -> GramSchmidtState:
    """Exact Gram-Schmidt orthogonalization of the basis rows."""
    rows = Basis(b).rows
    n = len(rows)
    star = []
    mu = []
    norms = []
    for k in range(n):
        v = [Fraction(x) for x in rows[k]]
        mu_row = []
        for j in range(n):
            if j >= k:
                break
            c = sum(x * y for x, y in zip(rows[k], star[j])) / norms[j]
            mu_row.append(c)
            if c:
                v = [a - c * s for a, s in zip(v, star[j])]
        star.append(v)
        mu.append(tuple(mu_row))
        norms.append(sum(x * x for x in v))
    return GramSchmidtState(star=tuple(tuple(v) for v in star),
                            mu=tuple(mu), star_norms=tuple(norms))


def _gs_data(rows):
    # mu and star norms without the star vectors, from pairwise products
    n = len(rows)
    mu = [[Fraction(0)] * n for _ in range(n)]
    bn = [Fraction(0)] * n
    for k in range(n):
        for j in range(k):
            s = Fraction(dot(rows[k], rows[j]))
            for i in range(j):
                s -= mu[j][i] * mu[k][i] * bn[i]
            mu[k][j] = s / bn[j]
        s = Fraction(dot(rows[k], rows[k]))
        for i in range(k):
            s -= mu[k][i] * mu[k][i] * bn[i]
        bn[k] = s
    return mu, bn


def lll_reduce(b, alpha=Fraction(3, 4)) -> Basis:
    """LLL-reduce a basis at parameter alpha (exact, default 3/4).

    The output is size-reduced (|mu| <= 1/2) and every consecutive pair
    satisfies the Lovasz condition at alpha.  alpha must lie in (1/4, 1];
    termination is guaranteed because the product of Gram determinants is a
    positive integer that strictly decreases with every swap.
    """
    return _lll(b, alpha)[0]


def _lll(b, alpha):
    # (h · b, h) for the unimodular transform h (Cohen, Alg. 2.6.3)
    alpha = Fraction(alpha)
    if not Fraction(1, 4) < alpha <= 1:
        raise ValueError("alpha must be in (1/4, 1]")
    rows = Basis(b).rows
    n = len(rows)
    h = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    mu, bn = _gs_data(rows)

    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                h[k] = [a - q * c for a, c in zip(h[k], h[j])]
                for i in range(j):
                    mu[k][i] -= q * mu[j][i]
                mu[k][j] -= q
        if bn[k] >= (alpha - mu[k][k - 1] * mu[k][k - 1]) * bn[k - 1]:
            k += 1
            continue
        # swap rows k-1 and k, patching the orthogonalization in place
        m = mu[k][k - 1]
        b_new = bn[k] + m * m * bn[k - 1]
        mu_new = m * bn[k - 1] / b_new
        bn[k] = bn[k - 1] * bn[k] / b_new
        bn[k - 1] = b_new
        h[k - 1], h[k] = h[k], h[k - 1]
        for j in range(k - 1):
            mu[k - 1][j], mu[k][j] = mu[k][j], mu[k - 1][j]
        for i in range(k + 1, n):
            t = mu[i][k]
            mu[i][k] = mu[i][k - 1] - m * t
            mu[i][k - 1] = t + mu_new * mu[i][k]
        mu[k][k - 1] = mu_new
        k = max(k - 1, 1)
    return Basis(_matmul(h, rows)), tuple(tuple(r) for r in h)
