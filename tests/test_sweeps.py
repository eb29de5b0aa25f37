"""The sweep loops skip only work that cannot change the result.

_lagrange tests each pair's fixpoint inline (2|g_ij| <= min(g_ii, g_jj)),
rounds a quotient only for a pair that steps, and until a sweep's first
step tests each unordered pair once; _simplify scores each unordered pair
at most once between two accepted changes.  Both must take the steps of
the plain loops below, which evaluate every ordered pair in every sweep,
and must leave the same state.  _simplify takes them at the same
positions.  _lagrange places rows through a position map and moves them
once, at the end, where the plain loop moves them at every step, so its
steps are compared by the rows they combine.  _hyperplanar scores each
shear before it applies it, makes no Candidate for a pre-pass screening
(an accepted one is applied in place), and reorders rows only once a
screening is accepted; it must end where the screening loop it replaced
ends.

A simplification sweep also skips what the sweep before it settled on
the state it left: it ends after the visit of that sweep's last accepted
change.  _lagrange and _simplify must take the steps of reference_lagrange
and reference_simplify in _helpers, on states far from their fixpoint.
Handed the pairs that are off the fixpoint, _lagrange skips the visits
of rows with none and tests the replaced row's pairs again after each
step; the hyperplanar pass tracks those pairs and hands each screening
its own.  The counter tests pin the work saved in operation counts, not
in seconds.
"""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from cubify import GeneratorSpec, Variant, cubify, det, generate
from cubify import _state, directional, hyperplanar
from cubify._state import BasisState, Candidate, _reordered
from cubify.cli import load_matrix
from cubify.directional import _lagrange, _simplify
from cubify.exact import _round_ratio
from cubify.hyperplanar import _hyperplanar

from _helpers import (DATA, division_reduced, off_pairs, reference_lagrange,
                      reference_simplify)
from test_bit_identity import _het20_permuted

SMALL = st.integers(-9, 9)
BIG = st.builds(lambda sign, mag: sign * mag, st.sampled_from((1, -1)),
                st.integers(10 ** 99, 10 ** 100 - 1))
ENTRIES = {"small": SMALL, "big": BIG}
DIGITS_50 = st.builds(lambda sign, mag: sign * mag, st.sampled_from((1, -1)),
                      st.integers(10 ** 49, 10 ** 50 - 1))
DIGITS_30 = st.builds(lambda sign, mag: sign * mag, st.sampled_from((1, -1)),
                      st.integers(10 ** 29, 10 ** 30 - 1))


@st.composite
def bases(draw, dims=st.integers(1, 8), entries=ENTRIES):
    n = draw(dims)
    entry = entries[draw(st.sampled_from(sorted(entries)))]
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    assume(det(rows) != 0)
    return rows


# -- the plain loops: every ordered pair, every sweep ----------------------

def _sign(x):
    return (x > 0) - (x < 0)


def _roles(state, i, j):
    # the shorter row plays divisor; ties go to the lower index
    ni = state.gram[i][i]
    nj = state.gram[j][j]
    if ni < nj:
        return i, j
    if nj < ni:
        return j, i
    return (i, j) if i < j else (j, i)


def plain_lagrange(state, m, variant):
    """Division sweeps over rows[:m] until every rounded quotient is zero."""
    n = len(state.gram)
    changed = True
    while changed:
        changed = False
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                u, v = _roles(state, i, j)
                k = _round_ratio(state.gram[u][v], state.gram[u][u])
                if k == 0:
                    continue
                state.replace(v, -k, u)
                if variant is Variant.APPEND:
                    # drop both, append the remainder then the divisor
                    order = [t for t in range(m) if t not in (u, v)] + [v, u]
                    order += range(m, n)
                    state.permute(order)
                elif state.gram[v][v] <= state.gram[u][u]:
                    # the remainder takes the divisor's slot, the divisor
                    # moves to v
                    state.swap(u, v)
                changed = True


def _placed_r(state, idx, k, src):
    """The rhombicity replace(idx, k, src) leaves, read off a copy."""
    trial = state.copy()
    trial.replace(idx, k, src)
    return trial.r


def plain_simplify(state, variant):
    """Single-step combinations accepted only on strict rhombicity decrease."""
    n = len(state.gram)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                u, v = _roles(state, i, j)
                s = _sign(state.gram[u][v])
                if s == 0:
                    continue
                # the remainder v - s·u replaces row u or row v; in u's slot
                # it is -s·(u - s·v), whose scalar products differ from
                # those of u - s·v only in sign, so R is the same
                if _placed_r(state, u, -s, v) < state.r:
                    target = u
                    state.replace(u, -s, v)
                    if s > 0:
                        state.negate(u)
                elif _placed_r(state, v, -s, u) < state.r:
                    target = v
                    state.replace(v, -s, u)
                else:
                    continue
                if variant is Variant.APPEND:
                    state.permute([t for t in range(n) if t != target] + [target])
                else:
                    state.sort_by_norm()
                changed = True


class _Swapping:
    """The exchange of rows a and b that plain_lagrange's INSERT step
    takes, as the transposition permute it is."""

    __slots__ = ()

    def swap(self, a, b):
        order = list(range(len(self.gram)))
        order[a], order[b] = b, a
        self.permute(order)


class _Permuting:
    """A Candidate's permute, which the pass never takes: the gram copy
    and the adjugate row reordered, pos followed and the step logged, so
    that replay(state, identity) moves the state by it."""

    __slots__ = ()

    def permute(self, order):
        self.gram = _reordered(self.gram, order)
        self.arow = [self.arow[j] for j in order]
        self.pos = order.index(self.pos)
        self.log.append(("permute", order))


class PlainCandidate(_Swapping, _Permuting, Candidate):
    """A Candidate that plain_lagrange can run on."""

    __slots__ = ()


def long_hyperplanar(state, variant, reduce_sublattice):
    """The screening loop that applies every shear to a Candidate before
    judging it; returns the adjugate of the final gram."""
    n = len(state.gram)
    m = n - 1
    state.adjugate()
    i = 0
    while i < n:
        rest = [t for t in range(n) if t != i]
        cand = PlainCandidate(state, i, state.r)
        if reduce_sublattice:
            rest.sort(key=lambda t: state.gram[t][t])
            cand.permute(rest + [i])
            plain_lagrange(cand, m, variant)
            srcs = range(m)
        else:
            srcs = rest
        target = cand.pos
        d = cand.arow[target]
        coeffs = [_round_ratio(cand.arow[t], d) for t in range(n)
                  if t != target]
        for c, t in zip(coeffs, srcs):
            if c:
                cand.replace(target, c, t)
        if cand.r < state.r:
            if not reduce_sublattice:
                cand.permute(rest + [i])
            cand.replay(state, list(range(n)))
            i = 0
        else:
            i += 1
    return state.adj


# -- states that log every row operation they take --------------------------

class _Logged(_Swapping):
    """Logs each row operation by position (calls) and each replace by the
    rows it combines (steps), as (label of idx before, k, label of src)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = []
        self.steps = []

    def replace(self, idx, k, src):
        self.calls.append(("replace", idx, k, src))
        self.steps.append((self._label(idx), k, self._label(src)))
        super().replace(idx, k, src)

    def negate(self, idx):
        self.calls.append(("negate", idx))
        super().negate(idx)

    def permute(self, order):
        self.calls.append(("permute", tuple(order)))
        super().permute(order)


class LoggedState(_Logged, BasisState):

    def _label(self, t):
        # trans is invertible, so its rows tell the rows apart
        return tuple(self.trans[t])


class LoggedCandidate(_Logged, _Permuting, Candidate):
    """Labels each row by its position in the state the candidate was
    made from, tracked through every permute."""

    def __init__(self, *args):
        super().__init__(*args)
        self.ids = list(range(len(self.gram)))

    def _label(self, t):
        return self.ids[t]

    def permute(self, order):
        self.ids = [self.ids[t] for t in order]
        super().permute(order)


def _state_pair(rows):
    """Two equal logged states of rows."""
    return [LoggedState(rows) for _ in range(2)]


def _full(state):
    return state.calls, state.trans, state.gram, state.r, state.s


def _trial(cand, order=None):
    """What a candidate holds, as if permuted by order."""
    if order is None:
        order = list(range(len(cand.gram)))
    return (_reordered(cand.gram, order), cand.r,
            [cand.arow[t] for t in order], order.index(cand.pos))


@settings(max_examples=120, deadline=None)
@given(rows=bases(), variant=st.sampled_from(Variant))
def test_lagrange_takes_the_plain_loops_steps_on_a_full_state(rows, variant):
    new, plain = _state_pair(rows)
    _lagrange(new, variant)
    plain_lagrange(plain, len(rows), variant)
    assert new.steps == plain.steps
    assert _full(new)[1:] == _full(plain)[1:]


def _few_off(rows, data):
    """rows as drawn, or divided and moved off the fixpoint by a few drawn
    steps, so that few pairs are off it."""
    if not data.draw(st.booleans(), label="few off"):
        return rows
    n = len(rows)
    state = BasisState(rows)
    reference_lagrange(state, Variant.INSERT)
    for _ in range(data.draw(st.integers(1, 3), label="steps")):
        idx, src = data.draw(st.permutations(range(n)), label="rows")[:2]
        state.replace(idx, data.draw(st.sampled_from((1, -1, 2, -2)),
                                     label="k"), src)
    return state.rows


def _replayed(state, cand, order):
    """What replaying cand by order leaves on a copy of state."""
    copy = state.copy()
    copy.adjugate()
    cand.replay(copy, order)
    return copy.trans, copy.gram, copy.r, copy.s, copy.adj


@settings(max_examples=120, deadline=None)
@given(rows=bases(st.integers(2, 8)), variant=st.sampled_from(Variant),
       data=st.data())
def test_lagrange_takes_the_plain_loops_steps_on_a_candidate(rows, variant,
                                                             data):
    # as a screening does: reduce the other m = n - 1 rows in sweep order
    # rest on an unpermuted candidate, without off and with their off
    # pairs, then replay it with them first and row pos last; the plain
    # loop runs on a candidate permuted so up front
    n = len(rows)
    rows = _few_off(rows, data)
    pos = data.draw(st.integers(0, n - 1), label="pos")
    rest = data.draw(st.permutations([t for t in range(n) if t != pos]),
                     label="rest")
    state = BasisState(rows)
    state.adjugate()
    plain = LoggedCandidate(state, pos, state.r)
    plain.permute(rest + [pos])
    plain_lagrange(plain, n - 1, variant)
    replayed = _replayed(state, plain, list(range(n)))
    for with_off in (False, True):
        new, order = LoggedCandidate(state, pos, state.r), rest[:]
        off = off_pairs(new.gram, order) if with_off else None
        _lagrange(new, variant, order, off=off)
        assert new.steps == plain.steps
        assert _trial(new, order + [pos]) == _trial(plain)
        assert _replayed(state, new, order + [pos]) == replayed


@settings(max_examples=120, deadline=None)
@given(rows=bases(st.integers(2, 8)), variant=st.sampled_from(Variant),
       data=st.data())
def test_a_swept_order_once_permuted_is_the_plain_loops_candidate(
        rows, variant, data):
    # any m rows but the carried one, swept in a drawn order on an
    # unpermuted candidate, without off and with their off pairs, against
    # the plain loop on a candidate permuted to that order up front
    n = len(rows)
    rows = _few_off(rows, data)
    order = data.draw(st.permutations(range(n)), label="order")
    m = data.draw(st.integers(1, n - 1), label="m")
    state = BasisState(rows)
    state.adjugate()
    plain = PlainCandidate(state, order[-1], state.r)
    plain.permute(order)
    plain_lagrange(plain, m, variant)
    logs = []
    for with_off in (False, True):
        new, swept = Candidate(state, order[-1], state.r), order[:m]
        off = off_pairs(new.gram, swept) if with_off else None
        _lagrange(new, variant, swept, off=off)
        assert new.log == [step for step in new.log if step[0] == "replace"]
        assert sorted(swept) == sorted(order[:m])
        assert _trial(new, swept + order[m:]) == _trial(plain)
        logs.append(new.log)
    assert logs[0] == logs[1]


@settings(max_examples=120, deadline=None)
@given(rows=bases(), variant=st.sampled_from(Variant))
def test_lagrange_moves_a_states_rows_at_most_once(rows, variant):
    # over every row, as the plain loop does, with one permute at the end
    new, plain = _state_pair(rows)
    new.log = []
    _lagrange(new, variant)
    plain_lagrange(plain, len(rows), variant)
    ops = [step[0] for step in new.log]
    assert "permute" not in ops[:-1]
    assert set(ops) <= {"replace", "permute"}
    assert _full(new)[1:] == _full(plain)[1:]


@settings(max_examples=120, deadline=None)
@given(rows=bases(), lagrange=st.sampled_from(Variant),
       variant=st.sampled_from(Variant))
def test_simplify_takes_the_plain_loops_steps(rows, lagrange, variant):
    # divided first, as the directional pass does: simplification alone on
    # an unreduced 100-digit basis is a subtractive Euclid
    new, plain = _state_pair(rows)
    for state in (new, plain):
        _lagrange(state, lagrange)
        state.calls.clear()
    _simplify(new, variant)
    plain_simplify(plain, variant)
    assert _full(new) == _full(plain)


UNREDUCED = bases(st.integers(2, 9), {"small": SMALL, "50-digit": DIGITS_50})


@settings(max_examples=150, deadline=None)
@given(rows=UNREDUCED, variant=st.sampled_from(Variant), data=st.data())
def test_lagrange_takes_the_reference_sweeps_steps(rows, variant, data):
    # every row, or a drawn subset in a drawn sweep order; the state as
    # drawn, or divided and moved off the fixpoint by a few drawn steps, so
    # that few pairs are off it.  _lagrange runs without off and with the
    # off pairs of the swept rows, a fresh scan, fewer than the rows or not
    n = len(rows)
    rows = _few_off(rows, data)
    ref = LoggedState(rows)
    assume(not division_reduced(ref.gram))
    order = None
    if data.draw(st.booleans(), label="with order"):
        order = data.draw(st.permutations(range(n)), label="order")
        order = order[:data.draw(st.integers(2, n), label="m")]
    swept = None if order is None else order[:]
    reference_lagrange(ref, variant, swept)
    for with_off in (False, True):
        new = LoggedState(rows)
        p = None if order is None else order[:]
        _lagrange(new, variant, p, off=off_pairs(new.gram, p) if with_off
                  else None)
        assert new.calls == ref.calls
        assert (new.gram, new.trans) == (ref.gram, ref.trans)
        assert p == swept


@settings(max_examples=150, deadline=None)
@given(rows=UNREDUCED, variant=st.sampled_from(Variant), data=st.data())
def test_simplify_takes_the_reference_sweeps_steps(rows, variant, data):
    # small entries as drawn; 50-digit ones divided first, since
    # simplification alone is a subtractive Euclid there, and then moved
    # off the fixpoint by a few drawn unit steps
    n = len(rows)
    state = BasisState(rows)
    if max(abs(x) for row in rows for x in row) > 9:
        reference_lagrange(state, Variant.INSERT)
    for _ in range(data.draw(st.integers(0, 3), label="steps")):
        idx, src = data.draw(st.permutations(range(n)), label="rows")[:2]
        state.replace(idx, data.draw(st.sampled_from((1, -1)), label="k"),
                      src)
    assume(not division_reduced(state.gram))
    new, ref = LoggedState(state.rows), LoggedState(state.rows)
    _simplify(new, variant)
    reference_simplify(ref, variant)
    assert _full(new) == _full(ref)


@pytest.mark.parametrize("reduce_sublattice", [True, False])
@settings(max_examples=60, deadline=None)
@given(rows=bases(st.integers(2, 7)), variant=st.sampled_from(Variant))
def test_hyperplanar_ends_where_the_long_screening_loop_ends(
        rows, variant, reduce_sublattice):
    new, long = BasisState(rows), BasisState(rows)
    _hyperplanar(new, variant, reduce_sublattice=reduce_sublattice)
    long_adj = long_hyperplanar(long, variant, reduce_sublattice)
    assert (new.trans, new.gram, new.r, new.s, new.adj) == (
        long.trans, long.gram, long.r, long.s, long_adj)


@pytest.mark.parametrize("x, a, b", [
    (1, 2, 2), (-1, 2, 2),          # ratio ±1/2 rounds to 0 (half to even)
    (3, 2, 5), (-3, 2, 5),          # ratio ±3/2 rounds to ±2
    (2, 2, 2), (-2, 2, 2),          # equal norms, ratio ±1
    (5, 10, 10), (6, 10, 10),
    (-5, 10, 7), (-4, 10, 7), (-3, 10, 7),   # negative products
    (0, 1, 1), (1, 1, 1), (-1, 3, 1),
    (10 ** 100, 2 * 10 ** 100, 3 * 10 ** 100),
    (10 ** 100 + 1, 2 * 10 ** 100, 3 * 10 ** 100),
])
def test_inline_fixpoint_test_agrees_with_the_rounded_quotient(x, a, b):
    assert (2 * abs(x) <= min(a, b)) == (_round_ratio(x, min(a, b)) == 0)


# -- the work a fixpoint sweep does, in operation counts --------------------

def _counted(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("variant", list(Variant))
def test_a_reduced_state_takes_no_rounded_quotient(monkeypatch, variant):
    state = BasisState(generate(GeneratorSpec("full", 10, (0, 100), seed=3)))
    _lagrange(state, variant)
    before = state.copy()
    calls = _counted(monkeypatch, directional, "_round_ratio")
    _lagrange(state, variant)
    assert calls == []
    assert state.trans == before.trans and state.gram == before.gram


@pytest.mark.parametrize("variant", list(Variant))
def test_a_simplified_state_scores_each_pair_once(monkeypatch, variant):
    n = 10
    state = BasisState(generate(GeneratorSpec("full", n, (0, 100), seed=3)))
    _lagrange(state, Variant.INSERT)
    _simplify(state, variant)
    before = state.copy()
    nonzero = sum(1 for i in range(n) for j in range(i)
                  if state.gram[i][j] != 0)
    # scoring both (i, j) and (j, i) would cost 2·nonzero > n·(n - 1)/2
    assert 4 * nonzero > n * (n - 1)
    calls = _counted(monkeypatch, BasisState, "pair_r")
    _simplify(state, variant)
    assert len(calls) <= n * (n - 1) // 2
    assert state.trans == before.trans and state.gram == before.gram


class _CountedAbs(int):
    """A Gram entry that counts the fixpoint tests reading it."""

    tests = 0

    def __abs__(self):
        _CountedAbs.tests += 1
        return int.__abs__(self)


@pytest.mark.parametrize("variant", list(Variant))
def test_a_reduced_state_tests_each_pair_once(monkeypatch, variant):
    # the confirming sweep takes no step, so it tests (i, j) and never
    # its mirror (j, i)
    n = 10
    state = BasisState(generate(GeneratorSpec("full", n, (0, 100), seed=3)))
    _lagrange(state, variant)
    before = state.copy()
    state.gram = [[_CountedAbs(x) for x in row] for row in state.gram]
    monkeypatch.setattr(_CountedAbs, "tests", 0)
    _lagrange(state, variant)
    assert _CountedAbs.tests == n * (n - 1) // 2
    assert state.trans == before.trans and state.gram == before.gram


class _Tagged(int):
    """A Gram entry that logs its place (row, column) when a sweep reads
    it; at says where it stands."""

    log = None


class _Tested(_Tagged):
    """Read by abs: _lagrange's fixpoint test."""

    def __abs__(self):
        _Tagged.log.append(self.at)
        return int.__abs__(self)


class _Visited(_Tagged):
    """Read by truth: _simplify's check for a zero product, the first read
    of a visit it scores."""

    def __bool__(self):
        _Tagged.log.append(self.at)
        return int.__bool__(self)


class _Retagging(BasisState):
    """Tags every entry of its Gram matrix as an entry, after every row
    operation, and logs at each replace how many reads came before it and
    the sweep's position map (order, which _lagrange sweeps in place)."""

    def __init__(self, rows, entry):
        super().__init__(rows)
        self.entry = entry
        self.order = list(range(len(rows)))
        self.replaces = []
        self._tag()

    def _tag(self):
        # in place: the sweeps hold the Gram matrix and its rows
        for a, row in enumerate(self.gram):
            for b, x in enumerate(row):
                row[b] = tagged = self.entry(x)
                tagged.at = (a, b)

    def replace(self, idx, k, src):
        self.replaces.append((len(_Tagged.log), self.order[:]))
        super().replace(idx, k, src)
        self._tag()

    def negate(self, idx):
        super().negate(idx)
        self._tag()

    def permute(self, order):
        super().permute(order)
        self._tag()


def _final_sweep(visits):
    """The visit numbers _simplify's last sweep read, from those read after
    the last change: the tail of the sweep that took it, then the last
    sweep, which starts at visit 1, each in rising order."""
    drops = [t for t in range(1, len(visits)) if visits[t] < visits[t - 1]]
    return visits[drops[-1]:] if drops else visits


@pytest.mark.parametrize("variant", list(Variant))
def test_a_division_from_off_pairs_visits_only_rows_with_an_off_pair(
        monkeypatch, variant):
    # division-reduced full n = 12 draws moved off the fixpoint by three
    # unit steps.  Handed the off pairs, _lagrange tests a pair only in
    # the visit of a row that has an off pair, or in the n - 1 tests of
    # the replaced row's pairs after a step; the visit that stepped may
    # go on with the row now at its position.  Handed no off pair, it
    # tests nothing.  Its steps are the reference sweeps'
    n = 12
    monkeypatch.setattr(_Tagged, "log", [])
    steps = 0
    # fixpoint tests with off and without
    tested = [0, 0]
    for seed in range(4):
        rng = random.Random(seed)
        state = BasisState(generate(GeneratorSpec("full", n, (0, 100),
                                                  seed=seed)))
        _lagrange(state, Variant.INSERT)
        for _ in range(3):
            idx, src = rng.sample(range(n), 2)
            state.replace(idx, rng.choice((1, -1)), src)
        off = off_pairs(state.gram)
        assert 0 < len(off) < n
        ref, swept = LoggedState(state.rows), list(range(n))
        reference_lagrange(ref, variant, swept)
        # the off pairs before each step and after the last
        replay, offs = BasisState(state.rows), [off]
        for _, idx, k, src in ref.calls:
            replay.replace(idx, k, src)
            offs.append(off_pairs(replay.gram))
        tagged = _Retagging(state.rows, _Tested)
        _Tagged.log = []
        _lagrange(tagged, variant, tagged.order, off=off)
        assert len(tagged.replaces) == len(ref.calls) > 0
        starts = [reads for reads, _ in tagged.replaces]
        orders = [order for _, order in tagged.replaces] + [tagged.order]
        bounds = [0] + starts + [len(_Tagged.log)]
        stepped = None
        for s in range(len(bounds) - 1):
            tests = _Tagged.log[bounds[s]:bounds[s + 1]]
            if s:
                # the replaced row against every other
                again, tests = tests[:n - 1], tests[n - 1:]
                v = ref.calls[s - 1][1]
                assert {a for a, _ in again} == {v}
                assert {b for _, b in again} | {v} == set(range(n))
            # the row of each visit: a run of tests of one row
            visits = [a for t, (a, _) in enumerate(tests)
                      if t == 0 or tests[t - 1][0] != a]
            offs_rows = {x for pair in offs[s] for x in pair}
            for at, a in enumerate(visits):
                assert a in offs_rows or (at == 0 and a == stepped)
            if s < len(starts):
                # the row now at the position of the visit that steps
                i = orders[s].index(_Tagged.log[starts[s] - 1][0])
                stepped = orders[s + 1][i]
        assert (tagged.gram, tagged.trans, tagged.order) == (
            ref.gram, ref.trans, swept)
        steps += len(starts)
        tested[0] += len(_Tagged.log)
        _Tagged.log = []
        _lagrange(tagged, variant, tagged.order, off=set())
        assert _Tagged.log == [] and len(tagged.replaces) == len(starts)
        # the same division without off
        _lagrange(_Retagging(state.rows, _Tested), variant, list(range(n)))
        tested[1] += len(_Tagged.log)
    # the skipped visits save a quarter of the tests at least
    assert steps > 4 and 4 * tested[0] < 3 * tested[1]


def test_a_row_visit_begun_before_the_sweeps_first_step_keeps_its_range():
    # one pair is off the fixpoint, rows 2 and 3.  The sweeps step it at
    # visit (2, 3), and the remainder, now the shorter, takes position 2,
    # where it is off with row 1 as well.  Row visit 2 began before the
    # sweep's first step and covers only j > 2, so the next step is at
    # (3, 2) in row visit 3, which covers every j; (2, 1) waits for the
    # next sweep, as (1, 2)
    rows = [[-2, -5, 4, 4], [5, 5, -2, 4], [-1, -2, -4, -1], [1, 2, 5, 0]]
    new, ref = _state_pair(rows)
    assert off_pairs(new.gram) == {(2, 3)}
    p, swept = list(range(4)), list(range(4))
    _lagrange(new, Variant.INSERT, p, off=off_pairs(new.gram))
    reference_lagrange(ref, Variant.INSERT, swept)
    assert ref.calls[:3] == [("replace", 3, 1, 2), ("replace", 2, 2, 3),
                             ("replace", 1, 3, 3)]
    assert new.calls == ref.calls
    assert (new.gram, new.trans, p) == (ref.gram, ref.trans, swept)


@pytest.mark.parametrize("variant", list(Variant))
def test_a_simplify_sweep_ends_after_the_last_sweeps_last_change(
        monkeypatch, variant):
    # the last sweep reads every visit with no change yet, and so scores
    # only (i, j) with i < j; none comes after the visit of the previous
    # sweep's last accepted change
    n = 10
    stops = []
    for seed in range(6):
        rows = generate(GeneratorSpec("full", n, (0, 100), seed=seed)).rows
        divided = BasisState(rows)
        _lagrange(divided, Variant.INSERT)
        state = _Retagging(divided.rows, _Visited)
        monkeypatch.setattr(_Tagged, "log", [])
        _simplify(state, variant)
        visits = [i * n + j for i, j in _Tagged.log]
        reads, _ = state.replaces[-1]
        stop = visits[reads - 1]
        final = _final_sweep(visits[reads:])
        assert final and max(final) <= stop
        assert all(i < j for i, j in (divmod(v, n) for v in final))
        stops.append(stop)
    assert min(stops) < n * n - n - 1


def test_the_pre_pass_makes_a_candidate_only_for_an_accepted_shear(
        monkeypatch):
    # het20 as perfbench feeds it, matrix 0: most pre-pass screenings are
    # rejected, and each is scored on the state in place.  An accepted one
    # is applied in place as well, by one BasisState.shear, so the
    # pre-pass makes no Candidate at all; its other rows keep their
    # position order, so the sheared row moves last without a reorder
    state = BasisState(_het20_permuted(0).rows)
    screenings = _counted(monkeypatch, hyperplanar, "_shear_coeffs")
    made = _counted(monkeypatch, Candidate, "__init__")
    sheared = _counted(monkeypatch, BasisState, "shear")
    reorders = _counted(monkeypatch, _state, "_reordered")
    accepted = []
    _hyperplanar(state, Variant.INSERT, reduce_sublattice=False,
                 trace=accepted)
    assert made == [] and reorders == []
    assert len(sheared) == len(accepted) > 0
    assert len(screenings) > 4 * len(accepted)


SCREENED = {
    "full-12": (lambda: generate(GeneratorSpec("full", 12, (0, 100),
                                               seed=1_000_000)), 62),
    "het20": (lambda: load_matrix(DATA / "heterogeneous_20x20.txt"), 244),
}


@pytest.mark.parametrize("name", sorted(SCREENED))
def test_cubify_screens_as_often_as_perfbench_counts(monkeypatch, name):
    # perfbench's hyperplanar.screenings counts _shear_coeffs calls, one
    # per screening; a refactor that changes how often cubify screens,
    # under auto options, must change these counts on purpose
    load, expected = SCREENED[name]
    b = load()
    screenings = _counted(monkeypatch, hyperplanar, "_shear_coeffs")
    cubify(b)
    assert len(screenings) == expected


@pytest.mark.parametrize("variant", list(Variant))
def test_a_screening_reorders_rows_only_once_accepted(monkeypatch, variant):
    # a full n = 12 draw, dense-hyp's kind of input: most screenings are
    # rejected and reorder nothing.  An accepted one reorders the Gram
    # matrix and the adjugate at most once each.  A swept Candidate
    # reorders its Gram copy once, and replaying it the adjugate at most
    # once.  In place (BasisState.shear) both are reordered once, or
    # neither when the other rows keep their position order
    state = BasisState(generate(GeneratorSpec("full", 12, (0, 100), seed=1)))
    adj = state.adjugate()
    screenings = _counted(monkeypatch, hyperplanar, "_shear_coeffs")
    reorders = _counted(monkeypatch, _state, "_reordered")
    shear, replay = BasisState.shear, Candidate.replay
    # (how, reorders of a Gram matrix, of the adjugate, others kept order)
    moves = []

    def moving(how, move, order):
        start = len(reorders)
        move()
        on_adj = sum(args[0] is adj for args in reorders[start:])
        moves.append((how, len(reorders) - start - on_adj, on_adj,
                      order[:-1] == sorted(order[:-1])))

    def sheared(s, i, steps, new, order):
        moving("in place", lambda: shear(s, i, steps, new, order), order)

    def replayed(c, s, order):
        moving("swept", lambda: replay(c, s, order), order)

    monkeypatch.setattr(BasisState, "shear", sheared)
    monkeypatch.setattr(Candidate, "replay", replayed)
    accepted = []
    _hyperplanar(state, variant, trace=accepted)
    assert len(moves) == len(accepted) > 0
    # every reorder belongs to an accepted screening
    assert sum(on_gram + on_adj for _, on_gram, on_adj, _ in moves) == len(
        reorders)
    for how, on_gram, on_adj, kept in moves:
        if how == "swept":
            assert on_gram == 1 and on_adj <= 1
        else:
            assert on_gram == on_adj == (0 if kept else 1)
    assert {how for how, *_ in moves} == {"in place", "swept"}
    assert len(screenings) > 2 * len(accepted)


@pytest.mark.parametrize("variant", list(Variant))
def test_a_screening_sweeps_only_where_a_pair_can_step(monkeypatch, variant):
    # a screening of row i makes a Candidate and sweeps exactly when a pair
    # of the rows but i is off the division fixpoint of the state it
    # screens: the pass's start, or the last accepted screening's result.
    # After an accepted screening, the round reaches the sheared row, now
    # last, only if it rejects every other screening; that row is screened
    # in place and rejected, and the pass ends.
    events = []
    screen = hyperplanar._shear_coeffs
    init, replay, shear = (Candidate.__init__, Candidate.replay,
                           BasisState.shear)

    def screening(arow, i):
        events.append(("screen", i))
        return screen(arow, i)

    def made(self, *args):
        events.append(("candidate",))
        init(self, *args)

    def sweeping(*args, **kwargs):
        events.append(("sweep",))
        _lagrange(*args, **kwargs)

    def replayed(self, state, order):
        replay(self, state, order)
        events.append(("accepted", off_pairs(state.gram), "swept"))

    def sheared(state, *args):
        shear(state, *args)
        events.append(("accepted", off_pairs(state.gram), "in place"))

    monkeypatch.setattr(hyperplanar, "_shear_coeffs", screening)
    monkeypatch.setattr(hyperplanar, "_lagrange", sweeping)
    monkeypatch.setattr(Candidate, "__init__", made)
    monkeypatch.setattr(Candidate, "replay", replayed)
    monkeypatch.setattr(BasisState, "shear", sheared)
    n = 12
    for seed in range(4):
        state = BasisState(generate(GeneratorSpec("full", n, (0, 100),
                                                  seed=seed)))
        events.append(("pass", off_pairs(state.gram)))
        _hyperplanar(state, variant)
    in_place = swept = again = 0
    for at, event in enumerate(events):
        if event[0] in ("pass", "accepted"):
            if event[0] == "accepted":
                # nothing between a screening and its acceptance: an
                # accepted screening scored in place makes no Candidate
                assert since == [] and event[2] == how
            off, since = event[1], []
            accepted = event[0] == "accepted"
        elif event[0] == "screen":
            i = event[1]
            if all(i in pair for pair in off):
                assert since == []
                in_place += 1
                how = "in place"
            else:
                assert since == [("candidate",), ("sweep",)]
                swept += 1
                how = "swept"
            if accepted and i == n - 1:
                assert all(i in pair for pair in off)
                # rejected: no Candidate and no replay follow, the pass ends
                assert at + 1 == len(events) or events[at + 1][0] == "pass"
                again += 1
            since = []
        else:
            since.append(event)
    assert in_place > 0 and swept > 0 and again > 0


@settings(max_examples=100, deadline=None)
@given(rows=bases(st.integers(2, 9), {"small": st.integers(-30, 30),
                                      "30-digit": DIGITS_30}),
       variant=st.sampled_from(Variant))
def test_a_pass_hands_each_screening_the_off_pairs_of_its_state(rows,
                                                                variant):
    # at every screening of row i, the off pairs the pass hands _lagrange
    # (none when it makes no Candidate) are those of a fresh scan of the
    # state's Gram matrix over the rows but i
    n = len(rows)
    state = BasisState(rows)
    handed = [set()]
    inner, screen = hyperplanar._lagrange, hyperplanar._shear_coeffs

    def sweeping(cand, variant, order=None, off=None):
        handed[0] = set(off)
        inner(cand, variant, order, off=off)

    def screening(arow, i):
        assert handed[0] == off_pairs(state.gram,
                                      [t for t in range(n) if t != i])
        handed[0] = set()
        return screen(arow, i)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hyperplanar, "_lagrange", sweeping)
        mp.setattr(hyperplanar, "_shear_coeffs", screening)
        _hyperplanar(state, variant)


def test_a_pass_screens_in_the_states_norm_order(monkeypatch):
    # with norm ties broken by descending position instead, every
    # sublattice sweep must receive the other rows in the order
    # norm_order gives the Gram matrix its screening starts from, also
    # after an accepted screening has moved the rows
    def descending_ties(self):
        g = self.gram
        return sorted(range(len(g)), key=lambda t: (g[t][t], -t))

    received = []
    inner = hyperplanar._lagrange

    def recording(cand, variant, order=None, off=None):
        g = cand.gram
        stable = sorted(range(len(g)), key=lambda t: g[t][t])
        received.append((order[:],
                         [t for t in descending_ties(cand) if t != cand.pos],
                         [t for t in stable if t != cand.pos]))
        inner(cand, variant, order, off=off)

    monkeypatch.setattr(BasisState, "norm_order", descending_ties)
    monkeypatch.setattr(hyperplanar, "_lagrange", recording)
    # four rows of norm 5, then draws with some equal norms
    bases = [[[2, 1, 0, 0], [0, 2, 1, 0], [0, 0, 2, 1], [1, 0, 0, 2]]]
    bases += [generate(GeneratorSpec("full", 8, (0, 9), seed=s)).rows
              for s in range(4)]
    accepted = []
    for rows in bases:
        for variant in Variant:
            _hyperplanar(BasisState(rows), variant, trace=accepted)
    assert accepted
    assert all(got == expected for got, expected, _ in received)
    assert any(expected != stable for _, expected, stable in received)
