"""The adjugate the hyperplanar pass carries must stay exact.

BasisState.adj is det(G)·G⁻¹ of the working metric tensor.  permute, the
division steps of _lagrange and combine_into update it in place instead of
recomputing it; after any sequence of them it must equal a fresh adjugate,
satisfy gram·adj == det(G)·I, and det(G) must not have moved.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from cubify import Variant, det
from cubify._state import BasisState
from cubify.directional import _lagrange
from cubify.exact import _adjugate
from cubify.hyperplanar import _hyperplanar

SMALL = st.integers(-9, 9)
BIG = st.builds(lambda sign, mag: sign * mag, st.sampled_from((1, -1)),
                st.integers(10 ** 100, 10 ** 110))
ENTRIES = {"small": SMALL, "big": BIG}


@st.composite
def bases(draw, dims=st.integers(1, 8)):
    n = draw(dims)
    entry = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    assume(det(rows) != 0)
    return rows


def _random_step(draw, state):
    n = len(state.rows)
    kind = draw(st.sampled_from(("permute", "lagrange", "combine")))
    if kind == "permute":
        state.permute(draw(st.permutations(range(n))))
    elif kind == "lagrange":
        _lagrange(state, draw(st.integers(1, n)), draw(st.sampled_from(Variant)))
    else:
        idx = draw(st.integers(0, n - 1))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=n - 1,
                               max_size=n - 1))
        state.combine_into(idx, coeffs, [t for t in range(n) if t != idx])


def assert_exact(state, g):
    n = len(state.rows)
    assert state.adj == _adjugate(state.gram)
    assert det(state.gram) == g
    for a in range(n):
        assert [sum(state.gram[a][t] * state.adj[t][b] for t in range(n))
                for b in range(n)] == [g * (a == b) for b in range(n)]
    assert state.consistent()


@settings(max_examples=80, deadline=None)
@given(rows=bases(), data=st.data())
def test_carried_adjugate_matches_a_fresh_one(rows, data):
    state = BasisState(rows)
    state.adj = _adjugate(state.gram)
    g = det(state.gram)
    assert g > 0
    for _ in range(data.draw(st.integers(1, 6), label="steps")):
        _random_step(data.draw, state)
        assert_exact(state, g)


def test_consistent_checks_the_adjugate():
    state = BasisState([[2, 1, 0], [0, 3, 1], [1, 0, 4]])
    assert state.consistent()
    state.adj = _adjugate(state.gram)
    assert state.consistent()
    state.adj[0][1] += 1
    assert not state.consistent()


@pytest.mark.parametrize("reduce_sublattice", [True, False])
@pytest.mark.parametrize("variant", list(Variant))
@settings(max_examples=25, deadline=None)
@given(rows=bases(st.integers(2, 6)))
def test_pass_reads_an_exact_adjugate_at_every_screening(
        rows, reduce_sublattice, variant):
    # every screening shears through combine_into while adj is set; check
    # the candidate just before each of them
    seen = []
    combine_into = BasisState.combine_into

    def checked(self, idx, coeffs, srcs):
        if self.adj is not None:
            assert self.consistent()
            seen.append(idx)
        combine_into(self, idx, coeffs, srcs)

    state = BasisState(rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BasisState, "combine_into", checked)
        _hyperplanar(state, variant, reduce_sublattice=reduce_sublattice)
    assert seen
    assert state.adj is None
    assert state.consistent()
