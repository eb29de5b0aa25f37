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
shear before it applies it, makes a Candidate for a pre-pass screening
only once it is accepted, and reorders a Candidate only once it is
accepted; it must end where the screening loop it replaced ends.  The
counter tests pin the work saved in operation counts, not in seconds.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from cubify import GeneratorSpec, Variant, det, generate
from cubify import _state, directional, hyperplanar
from cubify._state import BasisState, Candidate, _reordered
from cubify.directional import _lagrange, _simplify
from cubify.exact import _round_ratio
from cubify.hyperplanar import _hyperplanar

from test_bit_identity import _het20_permuted

SMALL = st.integers(-9, 9)
BIG = st.builds(lambda sign, mag: sign * mag, st.sampled_from((1, -1)),
                st.integers(10 ** 99, 10 ** 100 - 1))
ENTRIES = {"small": SMALL, "big": BIG}


@st.composite
def bases(draw, dims=st.integers(1, 8)):
    n = draw(dims)
    entry = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
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


@settings(max_examples=120, deadline=None)
@given(rows=bases(st.integers(2, 8)), variant=st.sampled_from(Variant),
       data=st.data())
def test_lagrange_takes_the_plain_loops_steps_on_a_candidate(rows, variant,
                                                             data):
    # as a screening does: reduce the other m = n - 1 rows in sweep order
    # rest on an unpermuted candidate, then replay it with them first and
    # row pos last; the plain loop runs on a candidate permuted so up front
    n = len(rows)
    pos = data.draw(st.integers(0, n - 1), label="pos")
    rest = data.draw(st.permutations([t for t in range(n) if t != pos]),
                     label="rest")
    state = BasisState(rows)
    state.adjugate()
    new, plain = (LoggedCandidate(state, pos, state.r),
                  LoggedCandidate(state, pos, state.r))
    order = rest[:]
    _lagrange(new, variant, order)
    plain.permute(rest + [pos])
    plain_lagrange(plain, n - 1, variant)
    assert new.steps == plain.steps
    assert _trial(new, order + [pos]) == _trial(plain)
    replayed = []
    for cand, by in ((new, order + [pos]), (plain, list(range(n)))):
        copy = state.copy()
        copy.adjugate()
        cand.replay(copy, by)
        replayed.append((copy.trans, copy.gram, copy.r, copy.s, copy.adj))
    assert replayed[0] == replayed[1]


@settings(max_examples=120, deadline=None)
@given(rows=bases(st.integers(2, 8)), variant=st.sampled_from(Variant),
       data=st.data())
def test_a_swept_order_once_permuted_is_the_plain_loops_candidate(
        rows, variant, data):
    # any m rows but the carried one, swept in a drawn order on an
    # unpermuted candidate, against the plain loop on a candidate
    # permuted to that order up front
    n = len(rows)
    order = data.draw(st.permutations(range(n)), label="order")
    m = data.draw(st.integers(1, n - 1), label="m")
    state = BasisState(rows)
    state.adjugate()
    new, plain = (Candidate(state, order[-1], state.r),
                  PlainCandidate(state, order[-1], state.r))
    swept = order[:m]
    _lagrange(new, variant, swept)
    assert new.log == [step for step in new.log if step[0] == "replace"]
    assert sorted(swept) == sorted(order[:m])
    plain.permute(order)
    plain_lagrange(plain, m, variant)
    assert _trial(new, swept + order[m:]) == _trial(plain)


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


def test_the_pre_pass_makes_a_candidate_only_for_an_accepted_shear(
        monkeypatch):
    # het20 as perfbench feeds it, matrix 0: most pre-pass screenings are
    # rejected, and a rejected one is scored on the state in place
    state = BasisState(_het20_permuted(0).rows)
    screenings = _counted(monkeypatch, hyperplanar, "_shear_coeffs")
    made = []
    init = Candidate.__init__

    def counting(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(Candidate, "__init__", counting)
    accepted = []
    _hyperplanar(state, Variant.INSERT, reduce_sublattice=False,
                 trace=accepted)
    assert len(made) == len(accepted) > 0
    assert len(screenings) > 4 * len(accepted)


@pytest.mark.parametrize("variant", list(Variant))
def test_a_screening_reorders_rows_only_once_accepted(monkeypatch, variant):
    # a full n = 12 draw, dense-hyp's kind of input: most screenings are
    # rejected and reorder nothing; an accepted one reorders its Gram
    # copy once, and replaying it reorders the adjugate at most once
    state = BasisState(generate(GeneratorSpec("full", 12, (0, 100), seed=1)))
    adj = state.adjugate()
    screenings = _counted(monkeypatch, hyperplanar, "_shear_coeffs")
    reorders = _counted(monkeypatch, _state, "_reordered")
    accepted = []
    _hyperplanar(state, variant, trace=accepted)
    on_adj = [args for args in reorders if args[0] is adj]
    assert len(reorders) - len(on_adj) == len(accepted) > 0
    assert len(on_adj) <= len(accepted)
    assert len(screenings) > 2 * len(accepted)


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

    def recording(cand, variant, order=None):
        g = cand.gram
        stable = sorted(range(len(g)), key=lambda t: g[t][t])
        received.append((order[:],
                         [t for t in descending_ties(cand) if t != cand.pos],
                         [t for t in stable if t != cand.pos]))
        inner(cand, variant, order)

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
