"""Directional reduction: pairwise division steps followed by simplification.

Division brings every pair to a fixpoint where the rounded projection
quotient is zero (2|bi·bj| <= bi·bi); simplification then tries single
additions/subtractions of the shorter vector and keeps them only when the
rhombicity strictly drops.  Both come in two placement variants:

  append - changed vectors go to the end of the list, order otherwise kept
  insert - changed vectors take over a position (division: the shorter
           vector's slot); simplification re-sorts by norm after each change

Both sweep until a sweep changes nothing, so most visits find a pair that
does not step, and they are kept cheap.  Division tests a pair's fixpoint
inline: the rounded quotient (half to even) is zero exactly when
2|g_ij| <= min(g_ii, g_jj), so only a pair that steps picks its divisor
and rounds.  The test is symmetric, so until a sweep's first step each
row visits only the pairs (i, j) with j > i: its mirror (j, i) was tested
earlier in the sweep on the same state.  After a step every row visits
every pair again.  Division moves no Gram row while it sweeps: it places
rows through a position map and reorders them once per call (see
_lagrange).  Handed the few pairs that are off the fixpoint, as a
hyperplanar screening does, division skips each row visit that could
only test, and after a step tests the replaced row's pairs again.
Simplification scores each unordered pair at most once between two
accepted changes: on an unchanged state the visit (j, i) would pick the
same divisor and remainder as (i, j) and reach the same verdict.
Both placements of a pair's remainder are scored together
(BasisState.pair_r), from the scalar products they share and from row
weights sum |g_t| that the sweep reads once per unchanged state: at its
start and after each accepted change.  r is their sum; the sweep keeps it
as a local, which an accepted change's score replaces, and the state
stores none.

Division ends on a sweep that takes no step, and that sweep tests each
unordered pair once.  Simplification does not repeat a verdict the sweep
before it reached on the state it left: if that sweep's last accepted
change was visit last, it scored every later visit on the final state or
skipped it as the mirror of one it scored there; the next sweep, unless
it changes something first, ends after visit last.
"""

from __future__ import annotations

from enum import Enum

from ._state import BasisState
from .exact import Basis, _round_ratio


class Variant(str, Enum):
    APPEND = "append"
    INSERT = "insert"


def _lagrange(state, variant, order=None, off=None):
    """Division sweeps until every rounded quotient is zero.

    The sweeps leave gram where it is and move rows only in p, the
    position map (p[t] is the Gram row at position t): a step replaces
    one row in place and then drops both rows and appends them (APPEND)
    or, when the remainder is no longer than the divisor, exchanges their
    positions (INSERT).  A step's remainder is strictly shorter than the
    row it replaces (2|g_uv| > g_uu <= g_vv), so the trace of gram, a
    positive integer, falls with every step and the sweeps end; each step
    asserts it, so a broken Gram update fails instead of looping.
    The sweeps end on one that takes no step; until its first step a
    sweep tests each unordered pair once, as (i, j) with j > i.
    Without order the sweeps cover every row and permute state once at
    the end, if a row moved.  order, when given, lists the rows to sweep,
    in sweep order (a screening passes the others in norm order); it is
    swept in place as p and ends holding their order, and no row moves.

    off, when given, is the set of pairs (x, y), x < y, of the rows in p
    that are off the fixpoint, and is only read.  With fewer pairs than p
    has rows, the sweeps map each row to its off partners, skip the visit
    of a row with none, which would only test, and stop once none has
    one; each step tests the replaced row's pairs again to keep the map
    exact.  With more, the sweeps run as without off.  The hyperplanar
    pass tracks off for its screenings; a full-state division passes none.
    """
    g = state.gram
    p = list(range(len(g))) if order is None else order
    m = len(p)
    # each row's off partners, when they are few
    partners = None
    if off is not None and len(off) < m:
        partners = {}
        for x, y in off:
            partners.setdefault(x, set()).add(y)
            partners.setdefault(y, set()).add(x)
    changed = True
    while changed:
        changed = False
        for i in range(m):
            a = p[i]
            if partners is not None and a not in partners:
                if partners:
                    # every test of row a's visit would pass
                    continue
                # no pair is off the fixpoint: no later visit steps
                changed = False
                break
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
                if partners is not None:
                    # only row v's pairs changed: test them again
                    for t in partners.pop(v, ()):
                        partners[t].discard(v)
                        if not partners[t]:
                            del partners[t]
                    gv = g[v]
                    dv = gv[v]
                    for t in p:
                        if t != v:
                            dt = g[t][t]
                            if 2 * abs(gv[t]) > (dv if dv < dt else dt):
                                partners.setdefault(v, set()).add(t)
                                partners.setdefault(t, set()).add(v)
                # the step rebuilt row v and may have moved the rows in p
                a = p[i]
                ga = g[a]
                da = ga[a]
    if order is None and p != list(range(m)):
        state.permute(p)


def _simplify(state, variant):
    """Single-step combinations accepted only on strict rhombicity decrease.

    Visit i·n + j scores the pair (i, j), unless the sweep scored (j, i)
    on this same state.  A sweep whose last accepted change was visit
    last scored every later visit on the state it ended on, or skipped
    it as such a mirror; so the next sweep, until it changes something,
    ends after visit last.
    """
    n = len(state.gram)
    # visit number of the last sweep's last accepted change; the first
    # sweep visits every pair
    stop = n * n - 1
    while stop >= 0:
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
                if last < 0 and i * n + j > stop:
                    # the last sweep left this visit, and every later
                    # one, scored or skipped on this same state
                    break
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
                # the change rebuilt rows and may have moved every row
                w = [sum(map(abs, row)) for row in g]
                assert r == sum(w)
                gi = g[i]
                di = gi[i]
        stop = last


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
