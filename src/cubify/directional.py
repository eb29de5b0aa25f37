"""Directional reduction: pairwise division steps followed by simplification.

Division brings every pair to a fixpoint where the rounded projection
quotient is zero (2|bi·bj| <= bi·bi); simplification then tries single
additions/subtractions of the shorter vector and keeps them only when the
rhombicity strictly drops.  Both come in two placement variants:

  append - changed vectors go to the end of the list, order otherwise kept
  insert - changed vectors take over a position (division: the shorter
           vector's slot); simplification re-sorts by norm after each change
"""

from __future__ import annotations

from enum import Enum

from ._state import BasisState
from .exact import Basis, _round_ratio


class Variant(str, Enum):
    APPEND = "append"
    INSERT = "insert"


def _roles(state, i, j):
    # the shorter row plays divisor; ties go to the lower index
    ni = state.gram[i][i]
    nj = state.gram[j][j]
    if ni < nj:
        return i, j
    if nj < ni:
        return j, i
    return (i, j) if i < j else (j, i)


def _combined_row(state, v, u, k):
    # transform row of rows[v] - k*rows[u]
    return [a - k * b for a, b in zip(state.trans[v], state.trans[u])]


def _dots_after_combine(state, v, u, k, n):
    # scalar products of rows[v] - k*rows[u] with the current rows, read off
    # the metric; entry at index v is the new squared norm
    g = state.gram
    dots = [g[v][t] - k * g[u][t] for t in range(n)]
    dots[v] = g[v][v] - 2 * k * g[u][v] + k * k * g[u][u]
    return dots


def _lagrange(state, m, variant):
    """Division sweeps over rows[:m] until every rounded quotient is zero."""
    n = len(state.gram)
    changed = True
    while changed:
        changed = False
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                u, v = _roles(state, i, j)
                k = _round_ratio(state.gram[u][v], state.gram[u][u])
                if k == 0:
                    continue
                tvec = _combined_row(state, v, u, k)
                dots = _dots_after_combine(state, v, u, k, n)
                rr = dots[v]
                if state.adj is not None:
                    # inside the hyperplanar pass: rows[v] -= k * rows[u]
                    state.carry_adj(v, ((-k, u),))
                if variant is Variant.APPEND:
                    # drop both, append the remainder then the divisor: after
                    # the permute the divisor already sits last, the slot
                    # before it (old row v) takes the remainder
                    order = [t for t in range(m) if t not in (u, v)] + [v, u]
                    order += range(m, n)
                    state.permute(order)
                    state.replace(m - 2, tvec, [dots[t] for t in order])
                elif rr <= state.gram[u][u]:
                    # the remainder takes the divisor's slot, the divisor
                    # moves to v: swap the two, then replace slot u
                    order = list(range(n))
                    order[u], order[v] = v, u
                    state.permute(order)
                    state.replace(u, tvec, [dots[t] for t in order])
                else:
                    state.replace(v, tvec, dots)
                changed = True


def _sign(x):
    return (x > 0) - (x < 0)


def _simplify(state, variant):
    """Single-step combinations accepted only on strict rhombicity decrease."""
    n = len(state.gram)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                # permute() rebinds the gram, so never hold it across moves
                g = state.gram
                u, v = _roles(state, i, j)
                s = _sign(g[u][v])
                if s == 0:
                    continue
                dots = _dots_after_combine(state, v, u, s, n)
                rr = dots[v]
                # rhombicity if the remainder replaces row u resp. row v;
                # dots[v] holds the squared norm, the remainder's product
                # with the surviving row v is g[v][v] - s*g[u][v]
                new_u = 2 * (sum(abs(dots[t]) for t in range(n) if t not in (u, v))
                             + abs(g[v][v] - s * g[u][v])) + rr
                r_u = state.r - state._row_weight(u) + new_u
                new_v = 2 * sum(abs(dots[t]) for t in range(n) if t != v) + rr
                r_v = state.r - state._row_weight(v) + new_v
                if r_u < state.r:
                    target = u
                elif r_v < state.r:
                    target = v
                else:
                    continue
                if target == u:
                    dots[u] = rr
                    dots[v] = g[v][v] - s * g[u][v]
                tvec = _combined_row(state, v, u, s)
                if variant is Variant.APPEND:
                    order = [t for t in range(n) if t != target] + [target]
                    state.permute(order)
                    state.replace(n - 1, tvec, [dots[t] for t in order])
                else:
                    state.replace(target, tvec, dots)
                    state.sort_by_norm()
                changed = True


def lagrange_division(b, variant=Variant.INSERT) -> Basis:
    """Pairwise division until every rounded quotient vanishes.

    The caller is expected to hand in a norm-sorted basis; the op itself
    never re-sorts, it only moves vectors as the variant dictates.
    """
    basis = Basis(b)
    state = BasisState(basis.rows)
    _lagrange(state, len(state.gram), Variant(variant))
    return Basis(state.rows)


def simplification(b, variant=Variant.INSERT) -> Basis:
    """One-step combinations of pairs, kept only when rhombicity drops."""
    basis = Basis(b)
    state = BasisState(basis.rows)
    _simplify(state, Variant(variant))
    return Basis(state.rows)


def directional_reduction(b, lagrange_variant=Variant.INSERT,
                          simplification_variant=Variant.INSERT) -> Basis:
    """Division sweeps followed by simplification sweeps."""
    basis = Basis(b)
    state = BasisState(basis.rows)
    _lagrange(state, len(state.gram), Variant(lagrange_variant))
    _simplify(state, Variant(simplification_variant))
    return Basis(state.rows)
