"""Directional reduction: pairwise division steps followed by simplification.

Division brings every pair to a fixpoint where the rounded projection
quotient is zero (2|bi·bj| <= bi·bi); simplification then tries single
additions/subtractions of the shorter vector and keeps them only when the
rhombicity strictly drops.  Both come in two placement variants:

  append - changed vectors go to the end of the list, order otherwise kept
  insert - changed vectors take over a position (division: the shorter
           vector's slot); simplification re-sorts by norm after each change

Both sweep until a full sweep changes nothing, so most visits find a pair
that does not step, and they are kept cheap.  Division tests a pair's
fixpoint inline: the rounded quotient (half to even) is zero exactly when
2|g_ij| <= min(g_ii, g_jj), so only a pair that steps picks its divisor
and rounds.  The test is symmetric, so until a sweep's first step each
row visits only the pairs (i, j) with j > i: its mirror (j, i) was tested
earlier in the sweep on the same state.  After a step every row visits
every pair again.  Division moves no Gram row while it sweeps: it places
rows through a position map and reorders them once per call (see
_lagrange).  Simplification scores each unordered pair at most once
between two accepted changes: on an unchanged state the visit (j, i) would
pick the same divisor and remainder as (i, j) and reach the same verdict.
Both placements of a pair's remainder are scored together
(BasisState.pair_r), from the scalar products they share and from row
weights sum |g_t| that the sweep reads once per unchanged state: at its
start and after each accepted change.  r is their sum; the sweep keeps it
as a local, which an accepted change's score replaces, and the state
stores none.
"""

from __future__ import annotations

from enum import Enum

from ._state import BasisState
from .exact import Basis, _round_ratio


class Variant(str, Enum):
    APPEND = "append"
    INSERT = "insert"


def _lagrange(state, variant, order=None):
    """Division sweeps until every rounded quotient is zero.

    The sweeps leave gram where it is and move rows only in p, the
    position map (p[t] is the Gram row at position t): a step replaces
    one row in place and then drops both rows and appends them (APPEND)
    or, when the remainder is no longer than the divisor, exchanges their
    positions (INSERT).  A step's remainder is strictly shorter than the
    row it replaces (2|g_uv| > g_uu <= g_vv), so the trace of gram, a
    positive integer, falls with every step and the sweeps end; each step
    asserts it, so a broken Gram update fails instead of looping.
    Without order the sweeps cover every row and permute state once at
    the end, if a row moved.  order, when given, lists the rows to sweep,
    in sweep order (a screening passes the others in norm order); it is
    swept in place as p and ends holding their order, and no row moves.
    """
    g = state.gram
    p = list(range(len(g))) if order is None else order
    m = len(p)
    changed = True
    while changed:
        changed = False
        for i in range(m):
            a = p[i]
            ga = g[a]
            da = ga[a]
            # until the sweep's first step, (i, j) with j < i was tested
            # as (j, i) on this same state, and the test is symmetric
            for j in range(m) if changed else range(i + 1, m):
                if i == j:
                    continue
                b = p[j]
                # the fixpoint test, before any role or quotient
                db = g[b][b]
                if 2 * abs(ga[b]) <= (da if da < db else db):
                    continue
                # the shorter row divides; ties go to the lower position
                u, v = (a, b) if da < db or (da == db and i < j) else (b, a)
                k = _round_ratio(g[u][v], g[u][u])
                dv = g[v][v]
                state.replace(v, -k, u)
                assert 0 < g[v][v] < dv
                if variant is Variant.APPEND:
                    # drop both, append the remainder then the divisor
                    p.remove(u)
                    p.remove(v)
                    p.append(v)
                    p.append(u)
                elif g[v][v] <= g[u][u]:
                    # the remainder takes the divisor's position, the
                    # divisor moves to the remainder's
                    p[i], p[j] = p[j], p[i]
                changed = True
                # the step rebuilt row v and may have moved the rows in p
                a = p[i]
                ga = g[a]
                da = ga[a]
    if order is None and p != list(range(m)):
        state.permute(p)


def _simplify(state, variant):
    """Single-step combinations accepted only on strict rhombicity decrease."""
    n = len(state.gram)
    changed = True
    while changed:
        changed = False
        # visit number i·n + j of the sweep's last accepted change
        last = -1
        g = state.gram
        # row weights and r for pair_r, on the state as it stands
        w = [sum(map(abs, row)) for row in g]
        r = sum(w)
        for i in range(n):
            gi = g[i]
            di = gi[i]
            for j in range(n):
                if i == j:
                    continue
                if j < i and last < j * n + i:
                    # (j, i) was scored on this same state and rejected
                    continue
                x = gi[j]
                if not x:
                    continue
                # the shorter row divides (ties to the lower index); the
                # sign of g_uv = g_ij
                dj = g[j][j]
                u, v = (i, j) if di < dj or (di == dj and i < j) else (j, i)
                s = 1 if x > 0 else -1
                # the remainder v - s·u replaces row u or row v; in u's slot
                # it is -s·(u - s·v), whose scalar products differ from
                # those of u - s·v only in sign, so R is the same
                r_u, r_v = state.pair_r(u, v, s, w, r)
                if r_u < r:
                    target, r = u, r_u
                    state.replace(u, -s, v)
                    if s > 0:
                        state.negate(u)
                elif r_v < r:
                    target, r = v, r_v
                    state.replace(v, -s, u)
                else:
                    continue
                if variant is Variant.APPEND:
                    state.permute([t for t in range(n) if t != target] + [target])
                else:
                    state.sort_by_norm()
                last = i * n + j
                changed = True
                # the change rebuilt rows and may have moved every row
                w = [sum(map(abs, row)) for row in g]
                assert r == sum(w)
                gi = g[i]
                di = gi[i]


def lagrange_division(b, variant=Variant.INSERT) -> Basis:
    """Pairwise division until every rounded quotient vanishes.

    The caller is expected to hand in a norm-sorted basis; the op itself
    never re-sorts, it only moves vectors as the variant dictates.
    """
    basis = Basis(b)
    state = BasisState(basis.rows)
    _lagrange(state, Variant(variant))
    return Basis(state.rows)


def simplification(b, variant=Variant.INSERT) -> Basis:
    """One-step combinations of pairs, kept only when rhombicity drops.

    Each step adds or subtracts a row once, so a pair whose rounded
    quotient is q takes about |q| steps: on a skewed basis that is not
    division-reduced the running time grows with the skew, without bound
    (simplification([[1, 0], [10**e, 1]]) takes about 10**e steps).
    cubify and directional_reduction always run division first; call
    lagrange_division before this on such inputs.
    """
    basis = Basis(b)
    state = BasisState(basis.rows)
    _simplify(state, Variant(variant))
    return Basis(state.rows)


def directional_reduction(b, lagrange_variant=Variant.INSERT,
                          simplification_variant=Variant.INSERT) -> Basis:
    """Division sweeps followed by simplification sweeps."""
    basis = Basis(b)
    state = BasisState(basis.rows)
    _lagrange(state, Variant(lagrange_variant))
    _simplify(state, Variant(simplification_variant))
    return Basis(state.rows)
