"""Mutable working state for the reduction passes.

Holds the current rows, the accumulated row transform (rows = trans · input)
and the metric tensor, with rhombicity and norm sum kept in sync
incrementally.  All pass internals mutate one of these instead of rebuilding
bases, so each elementary step is O(N) or O(N^2) instead of O(N^3).

The hyperplanar pass also sets adj, the integer adjugate det(G)·G⁻¹ of the
metric tensor, and clears it when it ends.  Unimodular row operations leave
det(G) unchanged, so adj stays integral over that one denominator; while it
is set, combine_into, permute and the division steps carry it along.
"""

from __future__ import annotations

from .exact import _adjugate, dot


class BasisState:

    __slots__ = ("rows", "trans", "gram", "r", "s", "adj")

    def __init__(self, rows, trans=None):
        self.rows = [list(r) for r in rows]
        n = len(self.rows)
        if trans is None:
            trans = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        self.trans = [list(r) for r in trans]
        self.gram = [[dot(self.rows[i], self.rows[j]) for j in range(n)]
                     for i in range(n)]
        self.r = sum(abs(x) for row in self.gram for x in row)
        self.s = sum(self.gram[i][i] for i in range(n))
        self.adj = None

    def copy(self):
        c = BasisState.__new__(BasisState)
        c.rows = [r[:] for r in self.rows]
        c.trans = [r[:] for r in self.trans]
        c.gram = [r[:] for r in self.gram]
        c.r = self.r
        c.s = self.s
        c.adj = None if self.adj is None else [r[:] for r in self.adj]
        return c

    def adopt(self, other):
        """Take over another state's contents; list objects are kept alive."""
        self.rows[:] = other.rows
        self.trans[:] = other.trans
        self.gram[:] = other.gram
        self.r = other.r
        self.s = other.s
        self.adj = other.adj

    def _row_weight(self, i):
        g = self.gram
        return 2 * sum(abs(g[i][j]) for j in range(len(g)) if j != i) + abs(g[i][i])

    def replace(self, idx, vec, tvec, dots):
        """Replace row idx (and its transform row); update gram, r, s.

        dots must be the scalar products of vec with every current row
        except idx plus vec·vec at position idx; callers derive the new row
        from existing ones and so read these off gram.
        """
        n = len(self.rows)
        self.r -= self._row_weight(idx)
        self.s -= self.gram[idx][idx]
        self.rows[idx] = list(vec)
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
        n = len(self.rows)
        vec = self.rows[idx][:]
        tvec = self.trans[idx][:]
        for c, s in live:
            for t in range(n):
                vec[t] += c * self.rows[s][t]
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
        self.replace(idx, vec, tvec, dots)
        if self.adj is not None:
            self.carry_adj(idx, live)

    def permute(self, order):
        self.rows[:] = [self.rows[i] for i in order]
        self.trans[:] = [self.trans[i] for i in order]
        self.gram[:] = [[self.gram[i][j] for j in order] for i in order]
        if self.adj is not None:
            self.adj[:] = [[self.adj[i][j] for j in order] for i in order]

    def sort_by_norm(self):
        """Stable sort of the rows by squared norm; r and s are unchanged."""
        n = len(self.rows)
        order = sorted(range(n), key=lambda i: self.gram[i][i])
        if order != list(range(n)):
            self.permute(order)

    # -- checks used by tests and debug asserts --

    def recomputed(self):
        fresh = BasisState(self.rows, self.trans)
        return fresh.gram, fresh.r, fresh.s

    def consistent(self):
        gram, r, s = self.recomputed()
        return (gram == self.gram and r == self.r and s == self.s
                and (self.adj is None or self.adj == _adjugate(gram)))
