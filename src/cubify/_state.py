"""Mutable working state for the reduction passes.

Holds the input rows once (base, shared by every copy and never mutated),
the accumulated row transform trans and the metric tensor gram of the
current rows.  Rhombicity r (sum |g|) and norm sum s (the trace) are read
off gram on demand and stored nowhere, so no row step pays for an r that
nothing reads, such as the steps of a division sweep.  A loop that scores
its steps holds r as a local: it reads it once and takes each accepted
step's score.  The current rows are trans · base; no pass reads them, so
they are formed on demand (rows, row(i)) only for outputs, trace records
and checks.

Every step of a pass is an elementary unimodular row operation, and the
state owns each one's update: replace(idx, k, src) adds k times one row to
another and negate flips one, both in O(N); permute reorders all rows at
once.  pair_r(u, v, s, w, r) scores the two replaces a simplification step
chooses between without applying either, from row weights w and r the
sweep reads once per unchanged state.  Every row update x + k·y goes
through _axpy, which maps add or sub at C speed for k = ±1.  No code
outside this module updates trans or gram.

The hyperplanar pass reads the integer adjugate of gram from
adjugate(), which the state keeps in adj from one pass to the next, so
that one fraction-free solve serves a whole run.  Between calls the state
records its steps in log (None until the first call, so the directional
steps before the first pass record nothing), and the next call applies
the record to adj with _replay.  A screening sweeps the other rows in
norm_order() on a Candidate, which reads its row of adj and logs its
steps; only an accepted screening moves the state, by
Candidate.replay(state, order).

gram and adj are symmetric, and a step moves each as m ← T·m·Tᵀ for an
elementary T, in _add_row (replace) or _negate_row (negate).
"""

from __future__ import annotations

from operator import add, itemgetter, sub

from .exact import _adjugate, _matmul, _rhombicity, metric_tensor, norm_sum


def _axpy(x, k, y):
    """x + k·y as a new list.

    k = ±1, the step of every simplification and of most divisions, maps
    add or sub over the rows at C speed; other k take the comprehension.
    """
    if k == 1:
        return list(map(add, x, y))
    if k == -1:
        return list(map(sub, x, y))
    return [a + k * b for a, b in zip(x, y)]


def _reordered(m, order):
    """m[order][:, order]: rows and columns of a square matrix reindexed."""
    if len(order) == 1:
        # itemgetter of one index returns the item, not a 1-tuple
        (i,) = order
        return [[m[i][i]]]
    pick = itemgetter(*order)
    return [list(pick(row)) for row in pick(m)]


def _add_row(m, idx, k, src):
    """m ← T·m·Tᵀ for T = I + k·E[idx][src] (src != idx), in place, in O(N).

    Forms the new row idx of the symmetric m once, writes column idx from
    it with one store per row, and returns it.
    """
    new = _axpy(m[idx], k, m[src])
    # |x + k·y|² = (x·x + k·x·y) + k·(x·y + k·y·y)
    new[idx] += k * new[src]
    m[idx] = new
    for row, x in zip(m, new):
        row[idx] = x
    return new


def _negate_row(m, idx):
    """m ← T·m·Tᵀ for T = I - 2·E[idx][idx], in place: row and column idx
    flip sign, the diagonal entry twice."""
    m[idx] = [-x for x in m[idx]]
    for row in m:
        row[idx] = -row[idx]


def _replay(log, adj, trans=None):
    """Apply logged steps to an adjugate, and to trans if given, in place.

    adj is the integer adjugate det(G)·G⁻¹ of the metric tensor the log
    starts from.  Unimodular steps leave det(G) unchanged, and a step with
    matrix T moves adj to adj(T·G·Tᵀ) = T⁻ᵀ·adj·T⁻¹.  For replace(idx, k,
    src), T = I + k·E[idx][src] and T⁻ᵀ = I - k·E[src][idx], which is
    _add_row(adj, src, -k, idx); a negate is its own inverse.  permute
    only composes a position map, pos[t] being the list row now at
    position t; adj(P·G·Pᵀ) = P·adj(G)·Pᵀ, so adj and trans are reordered
    once, at the end.
    """
    n = len(adj)
    pos = list(range(n))
    for step in log:
        op = step[0]
        if op == "replace":
            _, idx, k, src = step
            a, b = pos[idx], pos[src]
            _add_row(adj, b, -k, a)
            if trans is not None:
                trans[a] = _axpy(trans[a], k, trans[b])
        elif op == "negate":
            a = pos[step[1]]
            _negate_row(adj, a)
            if trans is not None:
                trans[a] = [-x for x in trans[a]]
        else:
            pos = [pos[i] for i in step[1]]
    if pos != list(range(n)):
        adj[:] = _reordered(adj, pos)
        if trans is not None:
            trans[:] = [trans[i] for i in pos]


class BasisState:

    __slots__ = ("base", "trans", "gram", "adj", "log")

    def __init__(self, rows):
        self.base = tuple(tuple(r) for r in rows)
        n = len(self.base)
        self.trans = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        self.gram = [list(row) for row in metric_tensor(self.base)]
        self.adj = self.log = None

    def adjugate(self):
        """The integer adjugate det(G)·G⁻¹ of gram, for a pass to move in
        place (see Candidate.replay).

        The first call solves for it; each later one brings the stored
        adjugate up to date with the steps logged since the last call.
        Every call starts a new log.
        """
        if self.adj is None:
            self.adj = _adjugate(self.gram)
        else:
            _replay(self.log, self.adj)
        self.log = []
        return self.adj

    @property
    def r(self):
        """The rhombicity of gram."""
        return _rhombicity(self.gram)

    @property
    def s(self):
        """The norm sum of gram."""
        return norm_sum(self.gram)

    @property
    def rows(self):
        """The current rows, trans · base."""
        return _matmul(self.trans, self.base)

    def row(self, i):
        """Current row i alone, in O(N^2)."""
        return _matmul([self.trans[i]], self.base)[0]

    def copy(self):
        c = BasisState.__new__(BasisState)
        c.base = self.base
        c.trans = [r[:] for r in self.trans]
        c.gram = [r[:] for r in self.gram]
        c.adj = c.log = None
        return c

    def pair_r(self, u, v, s, w, r):
        """The rhombicities replace(u, -s, v) and replace(v, -s, u) would
        leave, for s = ±1, in O(N).

        w[t] is sum(map(abs, gram[t])), row t's weights on this state, and
        r = sum(w) its rhombicity (a sweep passes both, read once per
        unchanged state).  The new rows u - s·v and v - s·u = -s·(u - s·v)
        are one vector up to sign: both have the scalar products
        D_t = g_ut - s·g_vt up to sign and the norm D_u - s·D_v.  The two
        scores differ only in the old row whose weight leaves r and the
        entry of D the norm replaces.  sum |D| is one pass of C-level
        maps; no list is built.
        """
        g = self.gram
        gu, gv = g[u], g[v]
        total = sum(map(abs, map(sub if s > 0 else add, gu, gv)))
        du, dv = gu[u] - s * gv[u], gu[v] - s * gv[v]
        # a row's weight in r: off-diagonal entries count twice
        new = r + 2 * total + du - s * dv
        return (new - 2 * (w[u] + abs(du)) + gu[u],
                new - 2 * (w[v] + abs(dv)) + gv[v])

    def replace(self, idx, k, src):
        """rows[idx] += k·rows[src] (src != idx), in O(N).

        Updates transform row idx and row and column idx of gram.
        """
        _add_row(self.gram, idx, k, src)
        t = self.trans
        t[idx] = _axpy(t[idx], k, t[src])
        if self.log is not None:
            self.log.append(("replace", idx, k, src))

    def negate(self, idx):
        """rows[idx] = -rows[idx], in O(N); r and s are unchanged."""
        self.trans[idx] = [-x for x in self.trans[idx]]
        _negate_row(self.gram, idx)
        if self.log is not None:
            self.log.append(("negate", idx))

    def permute(self, order):
        """Row t becomes the old row order[t]; r and s are unchanged."""
        self.trans[:] = [self.trans[i] for i in order]
        self.gram[:] = _reordered(self.gram, order)
        if self.log is not None:
            self.log.append(("permute", order))

    def norm_order(self):
        """Row indices by squared norm, ties in position order."""
        g = self.gram
        return sorted(range(len(g)), key=lambda i: g[i][i])

    def sort_by_norm(self):
        """Stable sort of the rows by squared norm; r and s are unchanged."""
        order = self.norm_order()
        if order != list(range(len(order))):
            self.permute(order)

    # -- checks used by tests and debug asserts --

    def consistent(self):
        """Whether gram matches the metric tensor of trans · base."""
        return list(map(list, metric_tensor(self.rows))) == self.gram


class Candidate:
    """A trial run of a state's steps that carries one adjugate row.

    A Candidate holds a copy of the state's gram, with the rows where the
    state has them, r (the state's rhombicity, which the pass hands it),
    pos (the row it carries) and arow, row pos of the state's adjugate
    (state.adj, current while state.log is empty).  It takes replace like
    BasisState, so a division sweep runs on it unchanged, and logs it
    instead of updating trans and adj.  Unlike the state it keeps r and
    updates it at every replace from the Gram row before and after the
    step: r is what the screening scores.  A replace with src != pos
    moves arow only in entry src, by -k times entry idx (see _replay).
    Only replay reorders a Candidate.
    """

    __slots__ = ("gram", "r", "pos", "arow", "log")

    def __init__(self, state, pos, r):
        """A trial of state, whose rhombicity is r, that carries the
        adjugate row of row pos."""
        assert state.log == []
        self.gram = [row[:] for row in state.gram]
        self.r = r
        self.pos = pos
        self.arow = state.adj[pos][:]
        self.log = []

    def replace(self, idx, k, src):
        """rows[idx] += k·rows[src] (src != idx, src != pos), in O(N)."""
        assert src != self.pos
        old = self.gram[idx]
        new = _add_row(self.gram, idx, k, src)
        # a row's weight in r: off-diagonal entries count twice
        self.r += (2 * (sum(map(abs, new)) - sum(map(abs, old)))
                   - new[idx] + old[idx])
        a = self.arow
        a[src] -= k * a[idx]
        self.log.append(("replace", idx, k, src))

    def replay(self, state, order):
        """Move state by this trial's steps, then by permute(order).

        state must be the one the candidate was made from, unchanged
        since.  It takes this gram reordered, and _replay applies the log
        to state.trans and state.adj in place; no Gram entry is computed
        a second time.
        """
        self.log.append(("permute", order))
        _replay(self.log, state.adj, state.trans)
        state.gram[:] = _reordered(self.gram, order)
