"""Shared test utilities: scramble generators and brute-force oracles.

The oracles are deliberately dumb enumerations, independent of the package's
reduction code, so they can vouch for it.  reference_lagrange is _lagrange's
sweep loop without its mirror-pair skip and its skip of rows with no off
pair, the oracle for the steps _lagrange takes with off and without.
reference_simplify is _simplify without its bound: every sweep after one
that changed something runs to its end.  The package must take the same
steps.
"""

import itertools
from pathlib import Path

from cubify.directional import Variant
from cubify.exact import _round_ratio

DATA = Path(__file__).resolve().parent.parent / "data"


def random_unimodular(n, rng, steps=None):
    """A random unimodular matrix: I_N scrambled by elementary row ops."""
    if steps is None:
        steps = 4 * n
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        op = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        if op == 0:
            k = rng.choice([-2, -1, 1, 2])
            m[j] = [a + k * b for a, b in zip(m[j], m[i])]
        elif op == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-a for a in m[i]]
    return m


def random_basis(n, rng, lo=-10, hi=10):
    """Random nonsingular integer matrix with entries in [lo, hi]."""
    from cubify import SingularBasisError, Basis
    while True:
        rows = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        try:
            return Basis(rows)
        except SingularBasisError:
            continue


def _det3(a, b, c):
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def _triple_r(a, b, c):
    r = 0
    for u in (a, b, c):
        for v in (a, b, c):
            r += abs(sum(x * y for x, y in zip(u, v)))
    return r


def best_in_box(basis, box):
    """(smallest norm sum, smallest rhombicity at that norm sum) over bases
    of the same 3-D lattice whose rows are integer combinations with
    coefficients in [-box, box].

    Exhaustive: candidate vectors are all such combinations (up to sign),
    candidate bases all norm-ordered triples with the right |det|, searched
    with monotone pruning seeded by the input basis itself.
    """
    rows = [list(r) for r in basis]
    assert len(rows) == 3
    d0 = abs(_det3(*rows))
    cands = set()
    rng_ = range(-box, box + 1)
    for z1, z2, z3 in itertools.product(rng_, rng_, rng_):
        v = tuple(z1 * a + z2 * b + z3 * c
                  for a, b, c in zip(rows[0], rows[1], rows[2]))
        if v == (0, 0, 0):
            continue
        lead = next(x for x in v if x)
        if lead < 0:
            v = tuple(-x for x in v)
        cands.add(v)
    cands = sorted(cands, key=lambda v: sum(x * x for x in v))
    n2 = [sum(x * x for x in v) for v in cands]
    best = sum(sum(x * x for x in r) for r in rows)
    best_r = _triple_r(*rows)
    m = len(cands)
    for a in range(m):
        if 3 * n2[a] > best:
            break
        for b in range(a + 1, m):
            if n2[a] + 2 * n2[b] > best:
                break
            for c in range(b + 1, m):
                s = n2[a] + n2[b] + n2[c]
                if s > best:
                    break
                if abs(_det3(cands[a], cands[b], cands[c])) == d0:
                    r = _triple_r(cands[a], cands[b], cands[c])
                    if s < best or r < best_r:
                        best, best_r = s, r
    return best, best_r


def best_s_in_box(basis, box):
    """Smallest norm sum over the same candidate bases as best_in_box."""
    return best_in_box(basis, box)[0]


def pair_combinations(rows, box):
    """All nonzero integer combinations of a list of vectors, |coeff| <= box."""
    dim = len(rows[0])
    out = []
    for coeffs in itertools.product(range(-box, box + 1), repeat=len(rows)):
        if not any(coeffs):
            continue
        v = [0] * dim
        for c, row in zip(coeffs, rows):
            for i, x in enumerate(row):
                v[i] += c * x
        out.append(tuple(v))
    return out


def shortest_norm_in_box(rows, box):
    """Squared norm of the shortest nonzero combination with |coeff| <= box."""
    return min(sum(x * x for x in v) for v in pair_combinations(rows, box))


def off_pairs(gram, rows=None):
    """The pairs (x, y), x < y, of rows (default: every row of gram) that
    are off the division fixpoint."""
    rows = sorted(range(len(gram)) if rows is None else rows)
    return {(x, y) for a, x in enumerate(rows) for y in rows[a + 1:]
            if 2 * abs(gram[x][y]) > min(gram[x][x], gram[y][y])}


def dense(steps, n, i):
    """A shear's steps, (c, t) pairs, as one coefficient per row t != i of
    n, in row order, 0 where no step reads the row.

    Checks the sparse form first: every c nonzero, and the rows t != i
    strictly increasing.
    """
    rows = [t for _, t in steps]
    assert all(c for c, _ in steps) and i not in rows
    assert rows == sorted(set(rows))
    coeffs = {t: c for c, t in steps}
    return [coeffs.get(t, 0) for t in range(n) if t != i]


def division_reduced(gram):
    """Whether every pair of gram is at its division fixpoint."""
    return not off_pairs(gram)


# -- the plain sweeps ------------------------------------------------------

def reference_lagrange(state, variant, order=None):
    """Division sweeps until every rounded quotient is zero.

    The sweeps leave gram where it is and move rows only in p, the
    position map (p[t] is the Gram row at position t): a step replaces
    one row in place and then drops both rows and appends them (APPEND)
    or, when the remainder is no longer than the divisor, exchanges their
    positions (INSERT).  A step's remainder is strictly shorter than the
    row it replaces (2|g_uv| > g_uu <= g_vv), so the trace of gram, a
    positive integer, falls with every step and the sweeps end; each step
    asserts it, so a broken Gram update fails instead of looping.  Every
    sweep tests every ordered pair (i, j), i != j: _lagrange's skip of the
    mirror pairs before a sweep's first step is not copied, so the oracle
    vouches for it.  Without order the sweeps cover every row and permute
    state once at the end, if a row moved.  order, when given, lists the
    rows to sweep, in sweep order (a screening passes the others in norm
    order); it is swept in place as p and ends holding their order, and no
    row moves.
    """
    g = state.gram
    p = list(range(len(g))) if order is None else order
    m = len(p)
    changed = True
    while changed:
        changed = False
        for i in range(m):
            a = p[i]
            ga = g[a]
            da = ga[a]
            for j in range(m):
                if i == j:
                    continue
                b = p[j]
                # the fixpoint test, before any role or quotient
                db = g[b][b]
                if 2 * abs(ga[b]) <= (da if da < db else db):
                    continue
                # the shorter row divides; ties go to the lower position
                u, v = (a, b) if da < db or (da == db and i < j) else (b, a)
                k = _round_ratio(g[u][v], g[u][u])
                dv = g[v][v]
                state.replace(v, -k, u)
                assert 0 < g[v][v] < dv
                if variant is Variant.APPEND:
                    # drop both, append the remainder then the divisor
                    p.remove(u)
                    p.remove(v)
                    p.append(v)
                    p.append(u)
                elif g[v][v] <= g[u][u]:
                    # the remainder takes the divisor's position, the
                    # divisor moves to the remainder's
                    p[i], p[j] = p[j], p[i]
                changed = True
                # the step rebuilt row v and may have moved the rows in p
                a = p[i]
                ga = g[a]
                da = ga[a]
    if order is None and p != list(range(m)):
        state.permute(p)


def reference_simplify(state, variant):
    """Single-step combinations accepted only on strict rhombicity decrease."""
    n = len(state.gram)
    changed = True
    while changed:
        changed = False
        # visit number i·n + j of the sweep's last accepted change
        last = -1
        g = state.gram
        # row weights and r for pair_r, on the state as it stands
        w = [sum(map(abs, row)) for row in g]
        r = sum(w)
        for i in range(n):
            gi = g[i]
            di = gi[i]
            for j in range(n):
                if i == j:
                    continue
                if j < i and last < j * n + i:
                    # (j, i) was scored on this same state and rejected
                    continue
                x = gi[j]
                if not x:
                    continue
                # the shorter row divides (ties to the lower index); the
                # sign of g_uv = g_ij
                dj = g[j][j]
                u, v = (i, j) if di < dj or (di == dj and i < j) else (j, i)
                s = 1 if x > 0 else -1
                # the remainder v - s·u replaces row u or row v; in u's slot
                # it is -s·(u - s·v), whose scalar products differ from
                # those of u - s·v only in sign, so R is the same
                r_u, r_v = state.pair_r(u, v, s, w, r)
                if r_u < r:
                    target, r = u, r_u
                    state.replace(u, -s, v)
                    if s > 0:
                        state.negate(u)
                elif r_v < r:
                    target, r = v, r_v
                    state.replace(v, -s, u)
                else:
                    continue
                if variant is Variant.APPEND:
                    state.permute([t for t in range(n) if t != target] + [target])
                else:
                    state.sort_by_norm()
                last = i * n + j
                changed = True
                # the change rebuilt rows and may have moved every row
                w = [sum(map(abs, row)) for row in g]
                assert r == sum(w)
                gi = g[i]
                di = gi[i]
