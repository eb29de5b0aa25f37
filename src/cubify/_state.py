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
the record to adj with _replay.  A screening that reduces the other rows
first runs them on a Candidate, an unpermuted copy of gram and of one
adjugate row, which logs its steps the same way; an accepted shear is
applied to a Candidate too.  A Candidate starts from the r its pass hands
it and updates it at every step, because r is the screening's score.  A Candidate's rows move once,
when the screening is accepted, by one permute just before
Candidate.replay; the state's trans and the adjugate follow only then.
A rejected screening reorders nothing.
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


def _replay(log, adj, trans=None):
    """Apply logged steps to an adjugate, and to trans if given, in place.

    adj is the integer adjugate det(G)·G⁻¹ of the metric tensor the log
    starts from.  Unimodular steps leave det(G) unchanged, and a step with
    matrix T moves adj to adj(T·G·Tᵀ) = T⁻ᵀ·adj·T⁻¹: replace(idx, k, src)
    moves row src by -k times row idx, then column src by -k times column
    idx, and negate flips row and column idx.  adj stays symmetric, so the
    moved column src is the moved row src with its diagonal entry moved
    once more, and is written from it with one store per row.  permute
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
            new = _axpy(adj[b], -k, adj[a])
            new[b] -= k * new[a]
            adj[b] = new
            for row, x in zip(adj, new):
                row[b] = x
            if trans is not None:
                trans[a] = _axpy(trans[a], k, trans[b])
        elif op == "negate":
            a = pos[step[1]]
            adj[a] = [-x for x in adj[a]]
            for row in adj:
                row[a] = -row[a]
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
        self.adj = None
        self.log = None

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
        g = self.gram
        dots = _axpy(g[idx], k, g[src])
        # |x + k·y|² = (x·x + k·x·y) + k·(x·y + k·y·y)
        dots[idx] += k * dots[src]
        t = self.trans
        t[idx] = _axpy(t[idx], k, t[src])
        g[idx] = dots
        for row, x in zip(g, dots):
            row[idx] = x
        if self.log is not None:
            self.log.append(("replace", idx, k, src))

    def negate(self, idx):
        """rows[idx] = -rows[idx], in O(N); r and s are unchanged."""
        self.trans[idx] = [-x for x in self.trans[idx]]
        g = self.gram
        # the diagonal entry flips twice
        g[idx] = [-x for x in g[idx]]
        for row in g:
            row[idx] = -row[idx]
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

    adj is the integer adjugate det(G)·G⁻¹ of the state's metric tensor,
    which the hyperplanar pass holds.  A Candidate holds a copy of the
    state's gram, with the rows where the state has them, r (the state's
    rhombicity, which the pass hands it), pos (one row's position, which
    permute moves) and arow, the adjugate row at pos.  It takes replace
    and permute like BasisState, so a pass runs on it unchanged, and logs
    them instead of updating trans and adj.  Unlike the state it keeps r
    and updates it at every replace from the Gram row before and after
    the step: r is what the screening scores.  Unimodular steps leave
    det(G) unchanged, so adj stays integral over that one denominator:
    under replace(idx, k, src), with T = I + k·E[idx][src], adj becomes
    adj(T·G·Tᵀ) = T⁻ᵀ·adj·T⁻¹, whose row pos differs only in entry src,
    by -k times entry idx, as long as src != pos.
    """

    __slots__ = ("gram", "r", "pos", "arow", "log")

    def __init__(self, state, adj, pos, r):
        """A trial of state, whose rhombicity is r, that carries the
        adjugate row of row pos."""
        self.gram = [row[:] for row in state.gram]
        self.r = r
        self.pos = pos
        self.arow = adj[pos][:]
        self.log = []

    def replace(self, idx, k, src):
        """rows[idx] += k·rows[src] (src != idx, src != pos), in O(N)."""
        assert src != self.pos
        g = self.gram
        old = g[idx]
        dots = _axpy(old, k, g[src])
        # |x + k·y|² = (x·x + k·x·y) + k·(x·y + k·y·y)
        dots[idx] += k * dots[src]
        # a row's weight in r: off-diagonal entries count twice
        self.r += (2 * (sum(map(abs, dots)) - sum(map(abs, old)))
                   - dots[idx] + old[idx])
        g[idx] = dots
        for row, x in zip(g, dots):
            row[idx] = x
        a = self.arow
        a[src] -= k * a[idx]
        self.log.append(("replace", idx, k, src))

    def permute(self, order):
        self.gram = _reordered(self.gram, order)
        self.arow = [self.arow[j] for j in order]
        self.pos = order.index(self.pos)
        self.log.append(("permute", order))

    def replay(self, state, adj):
        """Give state this gram, and apply the log to state.trans and to
        adj in place (see _replay).

        state and adj must be the ones the candidate was made from,
        unchanged since; no Gram entry is computed a second time.
        """
        _replay(self.log, adj, state.trans)
        state.gram[:] = self.gram
