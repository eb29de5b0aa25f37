"""Mutable working state for the reduction passes.

Holds the input rows once (base, shared by every copy and never mutated),
the accumulated row transform trans and the metric tensor of the current
rows, with rhombicity and norm sum kept in sync incrementally.  The current
rows are trans · base; no pass reads them, so they are formed on demand
(rows, row(i)) only for outputs, trace records and checks.  All pass
internals mutate one of these instead of rebuilding bases, so each
elementary step is O(N) or O(N^2) instead of O(N^3).

The hyperplanar pass also sets adj, the integer adjugate det(G)·G⁻¹ of the
metric tensor, and clears it when it ends.  Unimodular row operations leave
det(G) unchanged, so adj stays integral over that one denominator; while it
is set, combine_into, permute and the division steps carry it along.
"""

from __future__ import annotations

from .exact import _adjugate, _matmul, dot


class BasisState:

    __slots__ = ("base", "trans", "gram", "r", "s", "adj")

    def __init__(self, rows):
        self.base = tuple(tuple(r) for r in rows)
        n = len(self.base)
        self.trans = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        self.gram = [[dot(self.base[i], self.base[j]) for j in range(n)]
                     for i in range(n)]
        self.r = sum(abs(x) for row in self.gram for x in row)
        self.s = sum(self.gram[i][i] for i in range(n))
        self.adj = None

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
        c.r = self.r
        c.s = self.s
        c.adj = None if self.adj is None else [r[:] for r in self.adj]
        return c

    def adopt(self, other):
        """Take over another state's contents; list objects are kept alive."""
        self.base = other.base
        self.trans[:] = other.trans
        self.gram[:] = other.gram
        self.r = other.r
        self.s = other.s
        self.adj = other.adj

    def _row_weight(self, i):
        g = self.gram
        return 2 * sum(abs(g[i][j]) for j in range(len(g)) if j != i) + abs(g[i][i])

    def replace(self, idx, tvec, dots):
        """Replace transform row idx; update gram, r, s.

        dots must be the scalar products of the new row with every current
        row except idx plus its own squared norm at position idx; callers
        derive the new row from existing ones and so read these off gram.
        """
        n = len(self.gram)
        self.r -= self._row_weight(idx)
        self.s -= self.gram[idx][idx]
        self.trans[idx] = list(tvec)
        for j in range(n):
            self.gram[idx][j] = dots[j]
            self.gram[j][idx] = dots[j]
        self.r += 2 * sum(abs(dots[j]) for j in range(n) if j != idx) + abs(dots[idx])
        self.s += dots[idx]

    def carry_adj(self, idx, live):
        """Update adj for rows[idx] += sum(c * rows[s] for c, s in live).

        That step is B' = T·B with T⁻¹ = I - sum(c·E[idx][s]), and
        adj(T·G·Tᵀ) = T⁻ᵀ·adj(G)·T⁻¹: row s takes -c times row idx, then
        column s takes -c times column idx.  Row and column idx stay.
        """
        a = self.adj
        top = a[idx]
        for c, s in live:
            a[s] = [x - c * y for x, y in zip(a[s], top)]
        for row in a:
            y = row[idx]
            for c, s in live:
                row[s] -= c * y

    def combine_into(self, idx, coeffs, srcs):
        """rows[idx] += sum(c * rows[s]); derived dots come from gram."""
        live = [(c, s) for c, s in zip(coeffs, srcs) if c]
        if not live:
            return
        g = self.gram
        n = len(g)
        tvec = self.trans[idx][:]
        for c, s in live:
            for t in range(n):
                tvec[t] += c * self.trans[s][t]
        dots = [0] * n
        for j in range(n):
            if j == idx:
                continue
            dots[j] = g[idx][j] + sum(c * g[s][j] for c, s in live)
        nn = g[idx][idx] + 2 * sum(c * g[idx][s] for c, s in live)
        for c1, s1 in live:
            for c2, s2 in live:
                nn += c1 * c2 * g[s1][s2]
        dots[idx] = nn
        self.replace(idx, tvec, dots)
        if self.adj is not None:
            self.carry_adj(idx, live)

    def permute(self, order):
        self.trans[:] = [self.trans[i] for i in order]
        self.gram[:] = [[self.gram[i][j] for j in order] for i in order]
        if self.adj is not None:
            self.adj[:] = [[self.adj[i][j] for j in order] for i in order]

    def sort_by_norm(self):
        """Stable sort of the rows by squared norm; r and s are unchanged."""
        n = len(self.gram)
        order = sorted(range(n), key=lambda i: self.gram[i][i])
        if order != list(range(n)):
            self.permute(order)

    # -- checks used by tests and debug asserts --

    def consistent(self):
        """Whether gram, r, s and adj match a rebuild from trans · base."""
        fresh = BasisState(self.rows)
        return (fresh.gram == self.gram and fresh.r == self.r
                and fresh.s == self.s
                and (self.adj is None or self.adj == _adjugate(fresh.gram)))
