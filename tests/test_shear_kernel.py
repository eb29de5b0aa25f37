"""The adjugate shear kernel against the geometric oracle.

The hyperplanar pass reads its shear coefficients for row i off the integer
adjugate of the metric tensor (round(adj_it / adj_ii)), carried through a
screening's row operations by a Candidate.  The oracle builds the
hyperplane normal, the rational gap to the perpendicular foot and solves
for its sublattice coordinates from the row coordinates; both must round
to the same integers, ties included.  The pass rounds a ratio of at most
1/2 in magnitude to 0 without dividing, and scores a shear before it
applies one: both shortcuts must agree with the long way exactly.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cubify import (Variant, det, dot, hyperplane_normal, metric_tensor,
                    nearest_int, solve_in_sublattice)
from cubify._state import BasisState, Candidate
from cubify.directional import _lagrange
from cubify.exact import _adjugate, _round_ratio, _solve_fraction_free
from cubify.hyperplanar import _shear_coeffs, _sheared_r

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
    assert _shear_coeffs(arow, m) == oracle(state.rows[m], state.rows[:m])


@settings(max_examples=100, deadline=None)
@given(rows=bases(), data=st.data())
def test_kernel_reads_a_row_in_place(rows, data):
    # the pass without sublattice reduction shears row i where it stands
    i = data.draw(st.integers(0, len(rows) - 1), label="isolated")
    coeffs = _shear_coeffs(_adjugate(metric_tensor(rows))[i], i)
    assert coeffs == oracle(rows[i], rows[:i] + rows[i + 1:])


@settings(max_examples=100, deadline=None)
@given(rows=bases())
def test_solve_denominator_is_the_positive_gram_determinant(rows):
    m = len(rows) - 1
    gram = metric_tensor(rows)
    d, nums = _solve_fraction_free(sub_gram(gram, m),
                                   [[-gram[t][m]] for t in range(m)])
    assert d == det(sub_gram(gram, m)) > 0
    # nums / d solves G_sub·y = -g_x exactly
    for a in range(m):
        assert sum(gram[a][b] * nums[b][0] for b in range(m)) == -d * gram[a][m]
    # row m of the adjugate holds the same numerators over the same d
    adj = _adjugate(gram)
    assert adj[m][m] == d
    assert adj[m][:m] == [row[0] for row in nums]


@pytest.mark.parametrize("odd, expected", [(1, 0), (-1, 0), (3, -2), (-3, 2)])
def test_exact_half_ties_go_to_the_even_neighbour(odd, expected):
    # sublattice rows 2·e_k: G_sub = 4I and g_x = 2·odd, so each
    # coefficient is -odd/2, an exact tie
    rows = [[2, 0, 0], [0, 2, 0], [odd, odd, 1]]
    assert _shear_coeffs(_adjugate(metric_tensor(rows))[2], 2) == [expected, expected]
    assert oracle(rows[2], rows[:2]) == [expected, expected]
    # the same tie with the isolated row first
    rows = rows[2:] + rows[:2]
    assert _shear_coeffs(_adjugate(metric_tensor(rows))[0], 0) == [expected, expected]


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
    assert _shear_coeffs(adj[m], m) == oracle(isolated, sub)


@settings(max_examples=150, deadline=None)
@given(rows=bases(), data=st.data())
def test_shear_score_is_the_r_the_replaces_reach(rows, data):
    # _sheared_r scores rows[i] += sum c·rows[t] without applying it; a
    # Candidate applying the same replaces must reach that r.  Scored in
    # place (the pre-pass) and on a copy in screening order, row i last
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
    state = BasisState(rows)
    before = [row[:] for row in state.gram]
    in_place = _sheared_r(state.gram, state.r, i, coeffs, rest)
    assert state.gram == before
    ordered = state.copy()
    ordered.permute(rest + [i])
    assert _sheared_r(ordered.gram, ordered.r, m, coeffs, range(m)) == in_place
    state.adjugate()
    cand = Candidate(state, i, state.r)
    for c, t in zip(coeffs, rest):
        if c:
            cand.replace(i, c, t)
    assert cand.r == in_place
    if not any(coeffs):
        assert in_place == state.r


@st.composite
def adjugate_rows(draw):
    # row i's diagonal entry d > 0; the other entries cluster around the
    # ties ±d/2, where rounding changes, and reach far past them
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
def test_zero_shortcut_rounds_like_round_ratio(case):
    arow, i = case
    d = arow[i]
    expected = [_round_ratio(a, d) for t, a in enumerate(arow) if t != i]
    assert _shear_coeffs(arow, i) == expected


@pytest.mark.parametrize("a, d", [
    (1, 2), (-1, 2), (3, 6), (-3, 6),            # ties ±1/2 round to 0
    (2, 3), (-2, 3), (4, 6), (-4, 6),            # just past a half
    (1, 3), (-1, 3), (0, 1), (5, 10), (-5, 10),
    (10 ** 100, 2 * 10 ** 100), (-10 ** 100, 2 * 10 ** 100),
    (10 ** 100 + 1, 2 * 10 ** 100), (-10 ** 100 - 1, 2 * 10 ** 100),
])
def test_zero_shortcut_at_the_ties(a, d):
    assert _shear_coeffs([d, a], 0) == [_round_ratio(a, d)]
    assert _shear_coeffs([a, d], 1) == [_round_ratio(a, d)]
