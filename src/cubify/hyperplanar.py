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

A screening scores its shear before applying it (_sheared_r): the sheared
row's scalar products and norm, and so the rhombicity it would leave, come
from the Gram rows it combines, and nothing is written.  With sublattice
reduction the other rows are swept in BasisState.norm_order() on a
Candidate (see _state.py), an unpermuted copy of the Gram matrix that
carries x's row of the state's adjugate, and the sweeps only track the
order they leave the rows in; without it a screening reads the state's
Gram matrix and adjugate in place and copies nothing.  Either way the
shear is scored with the rows where they stand.  Only an accepted
screening applies its shear, to a Candidate, whose replay moves the
state into screening order (the other rows, then x).
"""

from __future__ import annotations

from dataclasses import dataclass

from ._state import BasisState, Candidate, _axpy
from .directional import Variant, _lagrange
from .exact import Basis, _matmul, _primitive, _round_ratio


def _shear_coeffs(arow, i):
    """round(adj_it / adj_ii) for every row t != i, in row order.

    arow is row i of the adjugate of the metric tensor; its entries are
    det(G) times the coordinates of -proj(b_i) over the other rows, and
    adj_ii = det(G)·(G⁻¹)_ii is positive.  Each ratio is rounded half to
    even like nearest_int.  Most round to 0, which needs no division:
    |a/d| <= 1/2 rounds to 0, the ties ±1/2 included.
    """
    d = arow[i]
    assert d > 0
    return [0 if 2 * abs(a) <= d else _round_ratio(a, d)
            for t, a in enumerate(arow) if t != i]


def _sheared_r(gram, r, i, coeffs, srcs):
    """The rhombicity left by rows[i] += c·rows[t] over zip(coeffs, srcs).

    Reads gram and changes nothing.  The sheared row's scalar products are
    D = g_i + sum c·g_t, accumulated row by row with _axpy (C speed for
    c = ±1), its squared norm is D_i + sum c·D_t, and r trades row i's
    weight for the new row's (off-diagonal entries count twice).
    """
    gi = gram[i]
    steps = [(c, t) for c, t in zip(coeffs, srcs) if c]
    if not steps:
        return r
    dots = gi
    for c, t in steps:
        dots = _axpy(dots, c, gram[t])
    norm = dots[i] + sum(c * dots[t] for c, t in steps)
    return (r - 2 * sum(map(abs, gi)) + gi[i]
            + 2 * (sum(map(abs, dots)) - abs(dots[i])) + norm)


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
    that of its final gram.  It reads the state's r and norm_order() at
    its start and after each accepted screening (a rejected one leaves
    gram as it was); r is a local that each accepted screening's score
    replaces, checked against gram once, at the end.
    """
    n = len(state.gram)
    if n < 2:
        return
    adj = state.adjugate()
    current = state.r
    order = state.norm_order()
    i = 0
    while i < n:
        # the other rows in row order, the rows a shear of row i combines
        others = [t for t in range(n) if t != i]
        if reduce_sublattice:
            # sweep the others in norm order on an unpermuted copy; rest
            # ends in the order the sweeps left them in
            rest = [t for t in order if t != i]
            cand = Candidate(state, i, current)
            _lagrange(cand, lagrange_variant, rest)
            gram, arow, r = cand.gram, cand.arow, cand.r
        else:
            # score the shear of row i where it stands; only an accepted
            # screening makes a candidate
            rest = others
            gram, arow, r = state.gram, adj[i], current
        coeffs = _shear_coeffs(arow, i)
        r = _sheared_r(gram, r, i, coeffs, others)
        if r < current:
            before = tuple(state.row(i)) if trace is not None else None
            if not reduce_sublattice:
                cand = Candidate(state, i, current)
            for c, t in zip(coeffs, others):
                if c:
                    cand.replace(i, c, t)
            assert cand.r == r
            # the screening order: the other rows, then row i
            cand.replay(state, rest + [i])
            current = r
            order = state.norm_order()
            if trace is not None:
                # the last dual row is orthogonal to every row but the last
                dual = _matmul(_matmul([adj[-1]], state.trans), state.base)
                trace.append(AcceptedShear(normal=_primitive(dual[0]),
                                           before=before,
                                           after=tuple(state.row(-1))))
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
    decrease.  The pass ends after one full screening with no acceptance.

    trace, when given, is a list that collects an AcceptedShear per accepted
    change.
    """
    basis = Basis(b)
    state = BasisState(basis.rows)
    _hyperplanar(state, Variant(lagrange_variant),
                 reduce_sublattice=reduce_sublattice, trace=trace)
    return Basis(state.rows)
