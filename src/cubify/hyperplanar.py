"""Hyperplanar reduction: shear each vector toward the hyperplane of the rest.

For a chosen vector x the other rows span a hyperplane.  The foot H of the
perpendicular from x onto that hyperplane's direction is the orthogonal
projection of x onto the span, so the gap H - x = -proj(x) lies inside the
hyperplane.  Its coordinates over the sublattice rows solve the normal
equations G_sub·y = -g_x, where G_sub is the sublattice's Gram matrix and
g_x the scalar products of x with those rows; both are entries of the
working state's metric tensor.  Rounding y = -G_sub⁻¹·g_x gives the lattice
point of x's layer nearest the foot in sublattice coordinates, and x is
replaced by it when the full-basis rhombicity strictly drops.  The solve is
fraction-free over the integers, so no normal vector, rational gap or fresh
Gram matrix is built; the hyperplane's primitive normal is computed only
for trace records of accepted shears.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._state import BasisState
from .directional import Variant, _lagrange
from .exact import (Basis, _int, _round_ratio, _solve_fraction_free, dot,
                    hyperplane_normal, nearest_int, solve_in_sublattice)


def sublattice_reduce(sub, lagrange_variant=Variant.INSERT):
    """Norm-sort then division sweeps on N-1 vectors living in dimension N."""
    vecs = [tuple(_int(x) for x in v) for v in sub]
    if len(vecs) < 2:
        return tuple(vecs)
    state = BasisState(vecs)
    state.sort_by_norm()
    _lagrange(state, len(vecs), Variant(lagrange_variant))
    return tuple(tuple(r) for r in state.rows)


def _shear_coeffs(gram, m):
    """round(-G_sub⁻¹·g_x) for row m over rows[:m], from the metric alone.

    G_sub is gram[:m][:m] and g_x the column gram[:m][m].  Integers only:
    the solve returns numerators over d = det(G_sub), which is positive
    because a Gram matrix of independent rows is positive definite, and
    each ratio is rounded half to even like nearest_int.
    """
    d, nums = _solve_fraction_free([row[:m] for row in gram[:m]],
                                   [[-gram[t][m]] for t in range(m)])
    assert d > 0
    return [_round_ratio(row[0], d) for row in nums]


def _geometric_coeffs(isolated, sub):
    """The same coefficients via the primitive normal and a rational gap."""
    p = hyperplane_normal(sub)
    pp = dot(p, p)
    px = dot(p, isolated)
    # gap from the isolated vector to the foot of the perpendicular
    gap = [Fraction(px * pc, pp) - xc for pc, xc in zip(p, isolated)]
    cols = [[v[i] for v in sub] for i in range(len(p))]
    return [nearest_int(c) for c in solve_in_sublattice(cols, gap)]


def shear_vector(isolated, sub):
    """The lattice point on isolated's layer nearest the perpendicular foot.

    Nearest coordinate-wise over the sublattice rows; the result differs
    from isolated by an integer combination of sub and keeps p·result
    unchanged.  Computed geometrically, independent of the pass's kernel.
    """
    coeffs = _geometric_coeffs(isolated, sub)
    out = list(isolated)
    for c, v in zip(coeffs, sub):
        if c:
            for i, x in enumerate(v):
                out[i] += c * x
    return tuple(out)


@dataclass
class AcceptedShear:
    """Trace record for one accepted screening step."""
    normal: tuple
    before: tuple
    after: tuple


def _hyperplanar(state, lagrange_variant=Variant.INSERT,
                 reduce_sublattice=True, trace=None):
    n = len(state.rows)
    if n < 2:
        return
    m = n - 1
    i = 0
    while i < n:
        cand = state.copy()
        cand.permute([t for t in range(n) if t != i] + [i])
        if reduce_sublattice:
            cand.sort_by_norm(upto=m)
            _lagrange(cand, m, lagrange_variant)
        cand.combine_into(m, _shear_coeffs(cand.gram, m), range(m))
        if cand.r < state.r:
            if trace is not None:
                p = hyperplane_normal(cand.rows[:m])
                trace.append(AcceptedShear(normal=p,
                                           before=tuple(state.rows[i]),
                                           after=tuple(cand.rows[m])))
            state.adopt(cand)
            i = 0
        else:
            i += 1


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
