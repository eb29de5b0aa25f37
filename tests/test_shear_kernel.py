"""The adjugate shear kernel against the geometric oracle.

The hyperplanar pass reads its shear coefficients for row i off the integer
adjugate of the metric tensor (round(adj_it / adj_ii)), carried through a
screening's row operations by a Candidate.  The oracle builds the
hyperplane normal, the rational gap to the perpendicular foot and solves
for its sublattice coordinates from the row coordinates; both must round
to the same integers, ties included.  The kernel returns only the
nonzero coefficients, as (c, t) steps in row order; dense() spreads them
over the other rows for the oracles.  The pass rounds a ratio of at most
1/2 in magnitude to 0 without dividing, and scores a shear before it
applies one: both shortcuts must agree with the long way exactly.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cubify import (Variant, det, dot, hyperplane_normal, metric_tensor,
                    nearest_int, solve_in_sublattice)
from cubify._state import BasisState, Candidate, _reordered
from cubify.directional import _lagrange
from cubify.exact import _adjugate, _round_ratio
from cubify.hyperplanar import _shear_coeffs, _sheared_r

from _helpers import dense

SMALL = st.integers(-20, 20)
BIG = st.builds(lambda sign, mag: sign * mag, st.sampled_from((1, -1)),
                st.integers(10 ** 100, 10 ** 120))
ENTRIES = {"small": SMALL, "big": BIG, "mixed": st.one_of(SMALL, BIG)}


def oracle(isolated, sub):
    p = hyperplane_normal(sub)
    gap = [Fraction(dot(p, isolated) * pc, dot(p, p)) - xc
           for pc, xc in zip(p, isolated)]
    cols = [[v[k] for v in sub] for k in range(len(isolated))]
    return [nearest_int(c) for c in solve_in_sublattice(cols, gap)]


def sub_gram(gram, m):
    return [row[:m] for row in gram[:m]]


@st.composite
def bases(draw):
    n = draw(st.integers(2, 8))
    entry = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    assume(det(rows) != 0)
    return rows


@settings(max_examples=150, deadline=None)
@given(rows=bases(), data=st.data())
def test_kernel_matches_geometric_oracle(rows, data):
    n = len(rows)
    m = n - 1
    i = data.draw(st.integers(0, m), label="isolated")
    state = BasisState(rows)
    # taken before the rows move, so the kernel reads the replayed adjugate
    adj = state.adjugate()
    reduce_sublattice = data.draw(st.booleans(), label="sublattice lagrange")
    # the pass's order: the rest in norm order, or in row order without
    # sublattice reduction
    rest = [t for t in (state.norm_order() if reduce_sublattice else range(n))
            if t != i]
    cand = Candidate(state, i, state.r)
    if reduce_sublattice:
        _lagrange(cand, data.draw(st.sampled_from(Variant), label="variant"),
                  rest)
    cand.replay(state, rest + [i])
    assert state.consistent()
    assert adj == _adjugate(state.gram)
    # the candidate's row, taken in screening order
    arow = [cand.arow[t] for t in rest + [i]]
    assert arow == adj[m]
    assert dense(_shear_coeffs(arow, m), n, m) == oracle(state.rows[m],
                                                         state.rows[:m])


@settings(max_examples=100, deadline=None)
@given(rows=bases(), data=st.data())
def test_kernel_reads_a_row_in_place(rows, data):
    # the pass without sublattice reduction shears row i where it stands
    i = data.draw(st.integers(0, len(rows) - 1), label="isolated")
    steps = _shear_coeffs(_adjugate(metric_tensor(rows))[i], i)
    assert dense(steps, len(rows), i) == oracle(rows[i], rows[:i] + rows[i + 1:])


@settings(max_examples=100, deadline=None)
@given(rows=bases())
def test_solve_denominator_is_the_positive_gram_determinant(rows):
    m = len(rows) - 1
    gram = metric_tensor(rows)
    # row m of the adjugate: the denominator, then its numerators
    adj = _adjugate(gram)
    d = adj[m][m]
    assert d == det(sub_gram(gram, m)) > 0
    # adj[m][:m] / d solves G_sub·y = -g_x exactly, and G_sub is
    # nonsingular, so no other numerators do
    y = adj[m][:m]
    for a in range(m):
        assert sum(gram[a][b] * y[b] for b in range(m)) == -d * gram[a][m]


@pytest.mark.parametrize("odd, expected", [(1, 0), (-1, 0), (3, -2), (-3, 2)])
def test_exact_half_ties_go_to_the_even_neighbour(odd, expected):
    # sublattice rows 2·e_k: G_sub = 4I and g_x = 2·odd, so each
    # coefficient is -odd/2, an exact tie
    rows = [[2, 0, 0], [0, 2, 0], [odd, odd, 1]]
    steps = _shear_coeffs(_adjugate(metric_tensor(rows))[2], 2)
    assert dense(steps, 3, 2) == [expected, expected]
    assert oracle(rows[2], rows[:2]) == [expected, expected]
    # the same tie with the isolated row first
    rows = rows[2:] + rows[:2]
    steps = _shear_coeffs(_adjugate(metric_tensor(rows))[0], 0)
    assert dense(steps, 3, 0) == [expected, expected]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 8), data=st.data())
def test_constructed_ties_under_unimodular_mixing(n, data):
    # sublattice 2·scale·e_k mixed by row additions: the coordinates of the
    # projection of an odd·scale isolated vector are halves or integers
    m = n - 1
    scale = data.draw(st.sampled_from((1, 10 ** 100 + 7)), label="scale")
    sub = [[2 * scale if j == k else 0 for j in range(n)] for k in range(m)]
    if m > 1:
        pair = st.lists(st.integers(0, m - 1), min_size=2, max_size=2,
                        unique=True)
        mixes = st.lists(st.tuples(pair, st.sampled_from((-1, 1))),
                         max_size=2 * m)
        for (a, b), k in data.draw(mixes, label="mixes"):
            sub[a] = [x + k * y for x, y in zip(sub[a], sub[b])]
    odd = st.integers(-4, 4).map(lambda t: 2 * t + 1)
    isolated = [data.draw(odd, label="x") * scale for _ in range(m)] + [1]
    adj = _adjugate(metric_tensor(sub + [isolated]))
    assert adj[m][m] > 0
    assert dense(_shear_coeffs(adj[m], m), n, m) == oracle(isolated, sub)


@settings(max_examples=150, deadline=None)
@given(rows=bases(), data=st.data())
def test_shear_score_is_the_r_the_replaces_reach(rows, data):
    # _sheared_r scores rows[i] += sum c·rows[t] without applying it and
    # writes nothing; a Candidate applying the same replaces must reach
    # that r, and its row i, norm included, must be the row returned.
    # Scored in place (the pre-pass) and on a copy in screening order,
    # row i last
    n = len(rows)
    m = n - 1
    i = data.draw(st.integers(0, m), label="isolated")
    rest = data.draw(st.permutations([t for t in range(n) if t != i]),
                     label="rest")
    coeff = st.one_of(st.integers(-3, 3), st.just(0),
                      BIG.map(lambda x: x // 10 ** 90))
    zeros = data.draw(st.booleans(), label="all zero")
    coeffs = [0] * m if zeros else data.draw(
        st.lists(coeff, min_size=m, max_size=m), label="coeffs")
    steps = [(c, t) for c, t in zip(coeffs, rest) if c]
    state = BasisState(rows)
    before = [row[:] for row in state.gram]
    in_place, row = _sheared_r(state.gram, state.r, i, steps)
    assert state.gram == before
    ordered = state.copy()
    ordered.permute(rest + [i])
    assert _sheared_r(ordered.gram, ordered.r, m,
                      [(c, t) for c, t in zip(coeffs, range(m)) if c]) == (
        in_place, [row[t] for t in rest + [i]])
    assert ordered.gram == _reordered(before, rest + [i])
    state.adjugate()
    cand = Candidate(state, i, state.r)
    for c, t in steps:
        cand.replace(i, c, t)
    assert (cand.r, cand.gram[i]) == (in_place, row)
    assert state.gram == before
    if not any(coeffs):
        assert (in_place, row) == (state.r, state.gram[i])


@st.composite
def adjugate_rows(draw):
    # row i's diagonal entry d > 0, odd or even; the other entries cluster
    # around the ties ±d/2, where rounding changes (|a| = d >> 1 rounds to
    # 0 and (d >> 1) + 1 does not), and reach far past them
    n = draw(st.integers(2, 8))
    scale = draw(st.sampled_from((1, 10 ** 100)))
    d = draw(st.integers(1, 40)) * scale + draw(st.integers(0, 1))
    near = st.builds(lambda sign, half, off: sign * (half + off),
                     st.sampled_from((1, -1)),
                     st.sampled_from((d // 2, (d + 1) // 2)),
                     st.integers(-2, 2))
    far = st.integers(-3 * d, 3 * d)
    row = draw(st.lists(st.one_of(near, far, BIG), min_size=n, max_size=n))
    i = draw(st.integers(0, n - 1))
    row[i] = d
    return row, i


@settings(max_examples=300, deadline=None)
@given(case=adjugate_rows())
@example(case=([1, 0, 1, -1], 0))
@example(case=([4, 2, -3, -2, 3], 0))
@example(case=([2, -3, 5, 3, -2], 2))
@example(case=([2 * 10 ** 100 + 1, 10 ** 100, -10 ** 100 - 1], 0))
def test_zero_shortcut_rounds_like_round_ratio(case):
    # the steps are the nonzero roundings, in row order
    arow, i = case
    d = arow[i]
    assert _shear_coeffs(arow, i) == [
        (_round_ratio(a, d), t) for t, a in enumerate(arow)
        if t != i and _round_ratio(a, d)]


@pytest.mark.parametrize("a, d", [
    (1, 2), (-1, 2), (3, 6), (-3, 6),            # ties ±1/2 round to 0
    (2, 3), (-2, 3), (4, 6), (-4, 6),            # just past a half
    (1, 3), (-1, 3), (0, 1), (5, 10), (-5, 10),
    (10 ** 100, 2 * 10 ** 100), (-10 ** 100, 2 * 10 ** 100),
    (10 ** 100 + 1, 2 * 10 ** 100), (-10 ** 100 - 1, 2 * 10 ** 100),
])
def test_zero_shortcut_at_the_ties(a, d):
    assert dense(_shear_coeffs([d, a], 0), 2, 0) == [_round_ratio(a, d)]
    assert dense(_shear_coeffs([a, d], 1), 2, 1) == [_round_ratio(a, d)]
