"""The state's row operations and the pass's adjugate must stay exact.

permute, negate and replace (and so the division steps of _lagrange)
update a BasisState's gram in place, and r and s are read off gram; after
any sequence of them the state's gram, r and s must match a rebuild from
its rows, and det(G) must not have moved.  pair_r, given the row weights
sum |g_t| and their sum r, must predict both replaces a simplification
step chooses between, and a replace must undo exactly.

The hyperplanar pass holds adj = det(G)·G⁻¹ of the state's metric tensor.
A Candidate made from the state carries a single row of the state's
adjugate through its steps and must follow the state step for step;
replaying it with an order must move the state and its adjugate exactly,
so that the adjugate equals a fresh one and gram·adj == det(G)·I.  A
shear rows[i] += sum c·rows[t] moves the adjugate in one batched update;
it must equal a fresh adjugate and the replaces one by one, and applied
in place by BasisState.shear, which refuses an adjugate that is not
current, it must leave the state exact with the sheared row last.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from cubify import Variant, det, metric_tensor, norm_sum, rhombicity
from cubify import hyperplanar
from cubify._state import (BasisState, Candidate, _axpy, _reordered, _replay,
                           _shear_adj)
from cubify.directional import _lagrange
from cubify.exact import _adjugate
from cubify.hyperplanar import _hyperplanar, _sheared_r

SMALL = st.integers(-9, 9)
BIG = st.builds(lambda sign, mag: sign * mag, st.sampled_from((1, -1)),
                st.integers(10 ** 100, 10 ** 110))
ENTRIES = {"small": SMALL, "big": BIG}
DIGITS_30 = st.builds(lambda sign, mag: sign * mag, st.sampled_from((1, -1)),
                      st.integers(10 ** 29, 10 ** 30 - 1))
DIGITS_90 = st.builds(lambda sign, mag: sign * mag, st.sampled_from((1, -1)),
                      st.integers(10 ** 89, 10 ** 90 - 1))


@st.composite
def bases(draw, dims=st.integers(1, 8), entries=ENTRIES):
    n = draw(dims)
    entry = entries[draw(st.sampled_from(sorted(entries)))]
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    assume(det(rows) != 0)
    return rows


def _random_step(draw, state):
    n = len(state.gram)
    kind = draw(st.sampled_from(("permute", "negate", "replace",
                                 "lagrange")))
    if kind == "permute":
        state.permute(draw(st.permutations(range(n))))
    elif kind == "negate":
        state.negate(draw(st.integers(0, n - 1)))
    elif kind == "replace" and n > 1:
        idx, src = draw(st.permutations(range(n)))[:2]
        state.replace(idx, draw(st.integers(-3, 3)), src)
    elif kind == "lagrange":
        # every row, or some rows in a drawn sweep order
        order = draw(st.permutations(range(n)))[:draw(st.integers(1, n))]
        _lagrange(state, draw(st.sampled_from(Variant)),
                  order if draw(st.booleans()) else None)


def _shear_steps(draw, n, i):
    """Sparse shear steps (c, t) of row i over some other rows, drawn."""
    others = draw(st.lists(st.sampled_from([t for t in range(n) if t != i]),
                           unique=True), label="sheared over")
    coeff = st.one_of(st.sampled_from((1, -1)), st.integers(-5, 5), DIGITS_90)
    return [(c, t) for c, t in zip(
        draw(st.lists(coeff.filter(bool), min_size=len(others),
                      max_size=len(others)), label="coefficients"), others)]


def _candidate_step(draw, cand):
    """One step a screening may take on cand, drawn; None if it takes none.

    A shear is the replaces (pos, c, t) of its steps, taken at once by a
    Candidate and one by one by a state.
    """
    n = len(cand.gram)
    kind = draw(st.sampled_from(("replace", "lagrange", "shear")),
                label="kind")
    if kind != "lagrange" and n < 2:
        return None
    if kind == "shear":
        pos, steps = cand.pos, _shear_steps(draw, n, cand.pos)

        def shear(s):
            if isinstance(s, Candidate):
                r, new = _sheared_r(s.gram, s.r, pos, steps)
                s.shear(steps, new, r)
            else:
                for c, t in steps:
                    s.replace(pos, c, t)
        return shear
    if kind == "replace":
        # the one step a Candidate refuses is src == pos
        src = draw(st.sampled_from([t for t in range(n) if t != cand.pos]),
                   label="src")
        idx = draw(st.sampled_from([t for t in range(n) if t != src]),
                   label="idx")
        k = draw(st.integers(-3, 3), label="k")
        return lambda s: s.replace(idx, k, src)
    # the pass's use: a sublattice Lagrange over the rows but pos, swept
    # in a drawn order
    rest = draw(st.permutations([t for t in range(n) if t != cand.pos]),
                label="rest")
    variant = draw(st.sampled_from(Variant), label="variant")
    return lambda s: _lagrange(s, variant, rest[:])


def assert_exact(state, adj, g):
    n = len(state.gram)
    assert adj == _adjugate(state.gram)
    assert det(state.gram) == g
    for a in range(n):
        assert [sum(state.gram[a][t] * adj[t][b] for t in range(n))
                for b in range(n)] == [g * (a == b) for b in range(n)]
    assert state.consistent()


@settings(max_examples=80, deadline=None)
@given(rows=bases(), data=st.data())
def test_state_steps_keep_gram_r_and_s(rows, data):
    state = BasisState(rows)
    g = det(state.gram)
    for _ in range(data.draw(st.integers(1, 6), label="steps")):
        _random_step(data.draw, state)
        assert state.consistent()
        assert det(state.gram) == g


@settings(max_examples=80, deadline=None)
@given(rows=bases(), data=st.data())
def test_carried_adjugate_matches_a_fresh_one(rows, data):
    # rounds of candidate steps, each replayed into the state as an
    # accepted screening is; its adjugate must stay exact
    n = len(rows)
    state = BasisState(rows)
    adj = state.adjugate()
    g = det(state.gram)
    assert g > 0
    for _ in range(data.draw(st.integers(1, 4), label="rounds")):
        order = data.draw(st.permutations(range(n)), label="order")
        cand = Candidate(state, order[-1], state.r)
        for _ in range(data.draw(st.integers(1, 4), label="steps")):
            step = _candidate_step(data.draw, cand)
            if step is not None:
                step(cand)
        cand.replay(state, order)
        assert state.adj is adj
        assert_exact(state, adj, g)


def assert_r_and_s_rebuilt(state):
    m = metric_tensor(state.rows)
    assert (state.r, state.s) == (rhombicity(m), norm_sum(m))


@settings(max_examples=80, deadline=None)
@given(rows=bases(), data=st.data())
def test_r_and_s_are_those_of_the_rows(rows, data):
    # r and s are read off gram: whichever steps ran, copies and replays
    # included, both must be the rows'
    n = len(rows)
    state = BasisState(rows)
    for _ in range(data.draw(st.integers(1, 10), label="steps")):
        kind = data.draw(st.sampled_from(("replace", "negate", "permute",
                                          "copy")), label="kind")
        if kind == "replace" and n > 1:
            idx, src = data.draw(st.permutations(range(n)), label="rows")[:2]
            state.replace(idx, data.draw(st.integers(-3, 3), label="k"), src)
        elif kind == "negate":
            state.negate(data.draw(st.integers(0, n - 1), label="row"))
        elif kind == "permute":
            state.permute(data.draw(st.permutations(range(n)), label="order"))
        elif kind == "copy":
            state = state.copy()
        if data.draw(st.booleans(), label="read"):
            assert_r_and_s_rebuilt(state)
    assert_r_and_s_rebuilt(state)
    state.adjugate()
    order = data.draw(st.permutations(range(n)), label="order")
    cand = Candidate(state, order[-1], state.r)
    for _ in range(data.draw(st.integers(0, 4), label="candidate steps")):
        step = _candidate_step(data.draw, cand)
        if step is not None:
            step(cand)
    cand.replay(state, order)
    assert_r_and_s_rebuilt(state)


def test_consistent_checks_gram_r_and_s():
    # r and s are read off gram, so the gram case covers them
    state = BasisState([[2, 1, 0], [0, 3, 1], [1, 0, 4]])
    assert state.consistent()
    wrong = state.copy()
    wrong.gram[0][1] += 1
    assert not wrong.consistent()


def _snapshot(state):
    return ([r[:] for r in state.trans], [r[:] for r in state.gram],
            state.r, state.s)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), k=st.one_of(st.sampled_from((-1, 0, 1)),
                                   st.integers(-20, 20), BIG))
def test_axpy_is_the_comprehension(data, k):
    n = data.draw(st.integers(0, 8), label="length")
    vector = st.lists(ENTRIES[data.draw(st.sampled_from(sorted(ENTRIES)),
                                        label="entries")],
                      min_size=n, max_size=n)
    x, y = data.draw(vector, label="x"), data.draw(vector, label="y")
    x0, y0 = x[:], y[:]
    got = _axpy(x, k, y)
    assert type(got) is list and got is not x and got is not y
    assert got == [a + k * b for a, b in zip(x0, y0)]
    assert (x, y) == (x0, y0)


@settings(max_examples=80, deadline=None)
@given(rows=bases(st.integers(2, 8)), data=st.data())
def test_pair_r_predicts_replace_and_replace_undoes(rows, data):
    state = BasisState(rows)
    u, v = data.draw(st.permutations(range(len(rows))), label="rows")[:2]
    s = data.draw(st.sampled_from((1, -1)), label="s")
    k = data.draw(st.integers(-5, 5), label="k")
    before = _snapshot(state)
    w = [sum(map(abs, row)) for row in state.gram]
    predicted = state.pair_r(u, v, s, w, sum(w))
    assert _snapshot(state) == before
    for (idx, src), r in zip(((u, v), (v, u)), predicted):
        state.replace(idx, -s, src)
        assert state.r == r
        assert state.consistent()
        state.replace(idx, s, src)
        assert _snapshot(state) == before
    state.replace(u, k, v)
    assert state.consistent()
    state.replace(u, -k, v)
    assert _snapshot(state) == before


@pytest.mark.parametrize("reduce_sublattice", [True, False])
@pytest.mark.parametrize("variant", list(Variant))
@settings(max_examples=25, deadline=None)
@given(rows=bases(st.integers(2, 6)))
def test_pass_reads_an_exact_adjugate_at_every_screening(
        rows, reduce_sublattice, variant):
    # every screening reads one adjugate row for its shear coefficients
    # and scores the shear against a Gram matrix: the state's, or that of
    # a Candidate whose other rows it reduced.  The row must be the row of
    # a fresh adjugate of that Gram matrix, at the sheared position.  An
    # accepted screening moves the state, in place or by replaying its
    # Candidate, and the state's adjugate must then be exact
    reads, scores, accepted = [], [], []
    shear, score, replay, in_place = (
        hyperplanar._shear_coeffs, hyperplanar._sheared_r, Candidate.replay,
        BasisState.shear)
    g = det(rows) ** 2

    def checked_shear(arow, i):
        reads.append((arow[:], i))
        return shear(arow, i)

    def checked_score(gram, r, i, steps):
        arow, pos = reads[-1]
        assert i == pos
        assert arow == _adjugate(gram)[i]
        scores.append(i)
        return score(gram, r, i, steps)

    def checked_replay(self, state, order):
        replay(self, state, order)
        assert_exact(state, state.adj, g)
        accepted.append(self)

    def checked_in_place(state, *args):
        in_place(state, *args)
        assert_exact(state, state.adj, g)
        accepted.append(state)

    state = BasisState(rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hyperplanar, "_shear_coeffs", checked_shear)
        mp.setattr(hyperplanar, "_sheared_r", checked_score)
        mp.setattr(Candidate, "replay", checked_replay)
        mp.setattr(BasisState, "shear", checked_in_place)
        _hyperplanar(state, variant, reduce_sublattice=reduce_sublattice)
    # each screening reads one row and scores once; one screening per row
    # after the last acceptance, at least
    assert len(reads) == len(scores) >= len(rows) + len(accepted)
    assert state.consistent()


@settings(max_examples=80, deadline=None)
@given(rows=bases(st.integers(2, 8)), data=st.data())
def test_candidate_follows_the_state_it_was_made_from(rows, data):
    # a Candidate and a copy of its state run the same steps; the
    # candidate must match the copy's gram and r and carry the row at pos
    # of the copy's adjugate, and replaying it with an order must turn
    # its state into the copy permuted by that order, and the state's
    # adjugate into the copy's
    n = len(rows)
    state = BasisState(rows)
    adj = state.adjugate()
    g = det(state.gram)
    ref = state.copy()
    order = data.draw(st.permutations(range(n)), label="order")
    pos = order[-1]
    cand = Candidate(state, pos, state.r)
    assert (cand.gram, cand.r) == (ref.gram, ref.r)
    assert cand.pos == pos
    assert cand.arow == _adjugate(ref.gram)[cand.pos]
    for _ in range(data.draw(st.integers(1, 8), label="steps")):
        step = _candidate_step(data.draw, cand)
        if step is None:
            continue
        step(ref)
        step(cand)
        assert (cand.gram, cand.r) == (ref.gram, ref.r)
        assert cand.arow == _adjugate(ref.gram)[cand.pos]
    cand.replay(state, order)
    ref.permute(order)
    assert (state.trans, state.gram, state.r, state.s) == (
        ref.trans, ref.gram, ref.r, ref.s)
    assert_exact(state, adj, g)


def test_a_candidate_needs_a_current_adjugate():
    # the state's adjugate is current only while its log is empty: before
    # the first adjugate() call there is none, and after a logged step it
    # lags the Gram matrix
    state = BasisState([[2, 1, 0], [0, 3, 1], [1, 0, 4]])
    with pytest.raises(AssertionError):
        Candidate(state, 0, state.r)
    state.adjugate()
    Candidate(state, 0, state.r)
    state.replace(1, 1, 2)
    with pytest.raises(AssertionError):
        Candidate(state, 0, state.r)
    state.adjugate()
    assert Candidate(state, 0, state.r).arow == _adjugate(state.gram)[0]


@settings(max_examples=100, deadline=None)
@given(rows=bases(st.integers(2, 9), {"small": SMALL, "30-digit": DIGITS_30}),
       data=st.data())
def test_a_batched_shear_is_its_replaces(rows, data):
    # rows[i] += sum c·rows[t] moves the adjugate by T⁻ᵀ·adj·T⁻¹ at once;
    # it must equal a fresh adjugate of the sheared rows and the replay of
    # the same replaces one by one, also through a position map.  Applied
    # to a state in place, with row i moved last, the state must be the
    # sheared rows in that order
    n = len(rows)
    i = data.draw(st.integers(0, n - 1), label="row")
    steps = _shear_steps(data.draw, n, i)
    state = BasisState(rows)
    adj = state.adjugate()
    sheared = [list(row) for row in rows]
    for c, t in steps:
        sheared[i] = [x + c * y for x, y in zip(sheared[i], rows[t])]
    expected = _adjugate(metric_tensor(sheared))
    batched = [row[:] for row in adj]
    _shear_adj(batched, i, steps)
    assert batched == expected
    replaces = [("replace", i, c, t) for c, t in steps]
    perm = data.draw(st.permutations(range(n)).filter(
        lambda p: p != list(range(n))), label="permute")
    # the same shear at the positions the permute gave the rows
    at = perm.index
    for order, log, one in (
            (list(range(n)), replaces, [("shear", i, steps)]),
            (perm,
             [("permute", perm)] + [("replace", at(i), c, at(t))
                                    for c, t in steps],
             [("permute", perm), ("shear", at(i),
                                  [(c, at(t)) for c, t in steps])])):
        carried = []
        for entries in (log, one):
            moved = [row[:] for row in adj]
            trans = [[int(a == b) for b in range(n)] for a in range(n)]
            _replay(entries, moved, trans)
            carried.append((moved, trans))
        assert carried[0] == carried[1]
        assert carried[1][0] == _reordered(expected, order)
    r, new = _sheared_r(state.gram, state.r, i, steps)
    others = [t for t in range(n) if t != i]
    if data.draw(st.booleans(), label="others reordered"):
        others = data.draw(st.permutations(others), label="others")
    order = others + [i]
    state.shear(i, steps, new, order)
    assert state.adj is adj and adj == _adjugate(state.gram)
    assert state.consistent()
    assert state.rows == [sheared[t] for t in order]
    assert state.r == r
    assert state.log == []


def test_an_in_place_shear_needs_a_current_adjugate():
    # BasisState.shear moves adj itself, so it refuses a state whose
    # adjugate is missing or lags logged steps, before it writes anything
    state = BasisState([[2, 1, 0], [0, 3, 1], [1, 0, 4]])
    steps = [(1, 0), (-2, 1)]

    def refused():
        before = _snapshot(state), state.adj and [r[:] for r in state.adj]
        _, new = _sheared_r(state.gram, state.r, 2, steps)
        with pytest.raises(AssertionError):
            state.shear(2, steps, new, [0, 1, 2])
        assert (_snapshot(state), state.adj) == before

    refused()
    state.adjugate()
    state.replace(1, 1, 0)
    assert state.log == [("replace", 1, 1, 0)]
    refused()
    state.adjugate()
    _, new = _sheared_r(state.gram, state.r, 2, steps)
    state.shear(2, steps, new, [0, 1, 2])
    assert state.consistent() and state.adj == _adjugate(state.gram)


def test_reordered_takes_rows_and_columns_in_order():
    m = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert _reordered(m, [1]) == [[5]]
    assert _reordered(m, [2, 0]) == [[9, 7], [3, 1]]
    assert _reordered(m, (0, 2)) == [[1, 3], [7, 9]]
    assert _reordered([[4]], [0]) == [[4]]
    assert m == [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
