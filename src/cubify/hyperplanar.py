"""Hyperplanar reduction: shear each vector toward the hyperplane of the rest.

For a chosen row x = b_i the other rows span a hyperplane.  The foot H of the
perpendicular from x onto that hyperplane's direction is the orthogonal
projection of x onto the span, so the gap H - x = -proj(x) lies inside the
hyperplane.  Its coordinates over the other rows come from the dual basis:
with D = G⁻¹ the inverse of the metric tensor, the dual row
w = sum_j D_ij·b_j is orthogonal to every row but x and has w·x = 1, so

    -proj(x) = sum_{j != i} (D_ij / D_ii)·b_j.

The pass holds D exactly as the integer adjugate adj(G) = det(G)·D.
Unimodular row operations carry it along in O(N) per step because det(G)
never changes (see _state._replay).  A pass takes it from
BasisState.adjugate(), which solves once per state and brings it up to
date with the steps logged since the last pass.  Within a pass only
accepted screenings move it (see Candidate.replay).  A screening rounds
adj_ij / adj_ii (adj_ii > 0) half to even, like nearest_int, to get the
lattice point of x's layer nearest the foot in sublattice coordinates; x
is replaced by it when the full-basis rhombicity strictly drops.  This is
the package's one shear computation: a screening builds no normal vector,
rational gap or linear solve.  Trace records of accepted shears take the
hyperplane's primitive normal from the same dual row.

A screening scores its shear before applying it (_sheared_r) from its
steps, the (c, t) of its nonzero coefficients: the sheared row's scalar
products and norm, and so the rhombicity it would leave, come from the
Gram rows they combine, and nothing is written.  The scored row is the
sheared row's Gram row, so an accepted shear x + sum c·b_t is applied as
one row operation, not as a replace per step.  With sublattice
reduction the other rows are swept in BasisState.norm_order() on a
Candidate (see _state.py), an unpermuted copy of the Gram matrix that
carries x's row of the state's adjugate; without it a screening reads
the state's Gram matrix and adjugate in place.  A list of the other rows
is built only for a sweep or an acceptance.  An accepted screening
scored in place is applied in place, by BasisState.shear, which also
moves the state into screening order (the other rows, then x); one that
swept takes its shear on the Candidate as one logged step, and the
Candidate's replay moves the state.  So the pass makes a Candidate only
for a sweep.

A round screens every row, and the pass ends after a round in which
every screening was rejected.  After an accepted screening the sheared
row, now last, is screened like the others and rejected at once: its
dual coordinates over the other rows are the old ones minus their
roundings, all in [-1/2, 1/2], so each rounds to 0 (half to even) and
the shear is the identity.

With sublattice reduction the pass tracks off, the pairs (x, y), x < y,
of the state's rows that are off the division fixpoint.  One scan of
every pair gives it at the pass's start.  After an accepted screening the
other rows have ended on a sweep that took no step, so every pair without
the last row is at the fixpoint, and one scan of the last row's pairs
gives it.  A rejected screening leaves the state, and off, as they were.
A screening of row i hands the off pairs without row i to _lagrange,
whose sweeps, when they are few, skip the rows with no off pair.
With none, the sweeps would take no step: the screening makes no
Candidate and no sweep, and scores in place like a screening without the
reduction, with the others in norm order.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._state import BasisState, Candidate, _combine
from .directional import Variant, _lagrange
from .exact import Basis, _matmul, _primitive, _round_ratio


def _shear_coeffs(arow, i):
    """The nonzero round(adj_it / adj_ii), t != i, as (c, t) in row order.

    arow is row i of the adjugate of the metric tensor; its entries are
    det(G) times the coordinates of -proj(b_i) over the other rows, and
    adj_ii = det(G)·(G⁻¹)_ii is positive.  Each ratio is rounded half to
    even like nearest_int.  Most round to 0, which needs no division:
    |a| <= d >> 1 is 2|a| <= d, the ties ±1/2 included.
    """
    d = arow[i]
    assert d > 0
    h = d >> 1
    return [(_round_ratio(a, d), t) for t, a in enumerate(arow)
            if abs(a) > h and t != i]


def _sheared_r(gram, r, i, steps):
    """The rhombicity left by rows[i] += c·rows[t] over steps, (c, t)
    pairs, and the sheared row's Gram row.

    Reads gram and changes nothing.  The sheared row's scalar products
    with the old rows are D = g_i + sum c·g_t, accumulated row by row by
    _combine (C speed for c = ±1); its squared norm D_i + sum c·D_t takes
    index i, which makes D its row of the sheared Gram matrix, a new
    list.  r trades row i's weight for the new row's (off-diagonal
    entries count twice).  Without steps it returns r and g_i.
    """
    gi = gram[i]
    if not steps:
        return r, gi
    new = _combine(gi, gram, steps)
    new[i] += sum(c * new[t] for c, t in steps)
    return (r - 2 * sum(map(abs, gi)) + gi[i] + 2 * sum(map(abs, new))
            - new[i]), new


@dataclass
class AcceptedShear:
    """Trace record for one accepted screening step."""
    normal: tuple
    before: tuple
    after: tuple


def _hyperplanar(state, lagrange_variant=Variant.INSERT,
                 reduce_sublattice=True, trace=None):
    """Run one pass on state.

    The pass reads the adjugate of state.gram from state.adjugate() and
    moves it in place, so the state's stored adjugate ends the pass as
    that of its final gram.  It reads the state's r at its start; r is a
    local that each accepted screening's score replaces, checked against
    gram once, at the end.  An accepted screening moves the state once:
    in place (BasisState.shear) when it was scored in place, else by its
    Candidate's replay.  With sublattice reduction it reads
    norm_order() at its start and after each accepted screening (a
    rejected one leaves gram as it was), and a screening sweeps the other
    rows only when one of their pairs is off the division fixpoint.
    """
    g = state.gram
    n = len(g)
    if n < 2:
        return
    adj = state.adjugate()
    current = state.r
    # the others' screening order: by norm, or by position without sweeps
    order = state.norm_order() if reduce_sublattice else range(n)
    if reduce_sublattice:
        # the pairs (x, y), x < y, off the division fixpoint
        off = {(x, y) for x in range(n) for y in range(x + 1, n)
               if 2 * abs(g[x][y]) > min(g[x][x], g[y][y])}
    i = 0
    while i < n:
        # the off pairs of the others: the pairs their sweeps would step
        pairs = {q for q in off if i not in q} if reduce_sublattice else None
        if pairs:
            # sweep the others in norm order on an unpermuted copy; rest
            # ends in the order the sweeps left them in
            rest = [t for t in order if t != i]
            cand = Candidate(state, i, current)
            _lagrange(cand, lagrange_variant, rest, off=pairs)
            gram, arow, r = cand.gram, cand.arow, cand.r
        else:
            # score the shear of row i where it stands: no pair of the
            # others steps, or none is swept; an accepted screening is
            # applied where it stands too
            cand = None
            gram, arow, r = state.gram, adj[i], current
        steps = _shear_coeffs(arow, i)
        r, new = _sheared_r(gram, r, i, steps)
        if r < current:
            before = tuple(state.row(i)) if trace is not None else None
            # the screening order: the other rows, then row i
            if cand is None:
                state.shear(i, steps, new, [t for t in order if t != i] + [i])
            else:
                cand.shear(steps, new, r)
                cand.replay(state, rest + [i])
            current = r
            if trace is not None:
                # the last dual row is orthogonal to every row but the last
                dual = _matmul(_matmul([adj[-1]], state.trans), state.base)
                trace.append(AcceptedShear(normal=_primitive(dual[0]),
                                           before=before,
                                           after=tuple(state.row(-1))))
            if reduce_sublattice:
                order = state.norm_order()
                # the others ended at the fixpoint: only the last row's
                # pairs can be off it
                last = g[-1]
                off = {(t, n - 1) for t in range(n - 1)
                       if 2 * abs(last[t]) > min(g[t][t], last[-1])}
            i = 0
        else:
            i += 1
    assert current == state.r


def hyperplanar_pass(b, lagrange_variant=Variant.INSERT, *,
                     reduce_sublattice=True, trace=None) -> Basis:
    """Screen every vector for a shear, restart after each accepted change.

    Each screening isolates one vector by list position, reduces the other
    rows as a sublattice (unless reduce_sublattice is off), shears the
    isolated vector toward the hyperplane foot, and accepts the candidate
    list {reduced sublattice..., sheared vector} only on a strict rhombicity
    decrease.  The pass ends after a round of screenings with no
    acceptance.

    trace, when given, is a list that collects an AcceptedShear per accepted
    change.
    """
    basis = Basis(b)
    state = BasisState(basis.rows)
    _hyperplanar(state, Variant(lagrange_variant),
                 reduce_sublattice=reduce_sublattice, trace=trace)
    return Basis(state.rows)
