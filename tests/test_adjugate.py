"""The state's row operations and the adjugate they carry must stay exact.

BasisState.adj is det(G)·G⁻¹ of the working metric tensor.  permute, swap,
negate and replace (and so the division steps of _lagrange) update it in
place instead of recomputing it; after any sequence of them it must equal
a fresh adjugate, satisfy gram·adj == det(G)·I, and det(G) must not have
moved.  r_after must predict replace, and a replace must undo exactly.
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
    n = len(state.gram)
    kind = draw(st.sampled_from(("permute", "swap", "negate", "replace",
                                 "lagrange")))
    if kind == "permute":
        state.permute(draw(st.permutations(range(n))))
    elif kind == "swap":
        state.swap(draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
    elif kind == "negate":
        state.negate(draw(st.integers(0, n - 1)))
    elif kind == "replace" and n > 1:
        idx, src = draw(st.permutations(range(n)))[:2]
        state.replace(idx, draw(st.integers(-3, 3)), src)
    elif kind == "lagrange":
        _lagrange(state, draw(st.integers(1, n)), draw(st.sampled_from(Variant)))


def assert_exact(state, g):
    n = len(state.gram)
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


def _snapshot(state):
    return ([r[:] for r in state.trans], [r[:] for r in state.gram],
            state.r, state.s, [r[:] for r in state.adj])


@settings(max_examples=80, deadline=None)
@given(rows=bases(st.integers(2, 8)), data=st.data())
def test_r_after_predicts_replace_and_replace_undoes(rows, data):
    state = BasisState(rows)
    state.adj = _adjugate(state.gram)
    idx, src = data.draw(st.permutations(range(len(rows))), label="rows")[:2]
    k = data.draw(st.integers(-5, 5), label="k")
    before = _snapshot(state)
    predicted = state.r_after(idx, k, src)
    assert _snapshot(state) == before
    state.replace(idx, k, src)
    assert state.r == predicted
    assert_exact(state, det(before[1]))
    state.replace(idx, -k, src)
    assert _snapshot(state) == before


@pytest.mark.parametrize("reduce_sublattice", [True, False])
@pytest.mark.parametrize("variant", list(Variant))
@settings(max_examples=25, deadline=None)
@given(rows=bases(st.integers(2, 6)))
def test_pass_reads_an_exact_adjugate_at_every_screening(
        rows, reduce_sublattice, variant):
    # every screening copies the state and shears the candidate through
    # replace while adj is set; a screening whose coefficients are all zero
    # makes no replace call, so check at every copy and every replace
    seen = []
    copy, replace = BasisState.copy, BasisState.replace

    def checked_copy(self):
        if self.adj is not None:
            assert self.consistent()
            seen.append("copy")
        return copy(self)

    def checked_replace(self, idx, k, src):
        if self.adj is not None:
            assert self.consistent()
        replace(self, idx, k, src)

    state = BasisState(rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BasisState, "copy", checked_copy)
        mp.setattr(BasisState, "replace", checked_replace)
        _hyperplanar(state, variant, reduce_sublattice=reduce_sublattice)
    assert len(seen) >= len(rows)
    assert state.adj is None
    assert state.consistent()
