"""Reduction driver: classify the input, pick options, cycle until stable.

A cycle is

  method 1:  sort -> directional -> hyperplanar
  method 2:  sort -> hyperplanar -> directional -> hyperplanar  (first cycle)
             sort -> directional -> hyperplanar                 (later ones)

run while the rhombicity strictly decreases; when a cycle brings no strict
decrease the pre-cycle list is returned.  Near-identity matrices with one
heavy column respond best to method 1, matrices dense with large entries to
method 2, and matrices mixing a heavy column with dense heavy rows get one
extra hyperplanar pass (without sublattice reduction) up front.

A cycle's closing hyperplanar pass is skipped when the directional phase
leaves the transform rows, taken in norm order (ties by position), as it
found them; only method 1's first cycle, which no sublattice pass has
preceded, always runs it.  The skip is exact:

- a pass ends only after a full round in which every screening was
  rejected;
- a screening of row x sweeps the other rows in BasisState.norm_order(),
  the stable order sort_by_norm sorts by, and reads x's adjugate row and
  r, which does not depend on row order;
- adj(P·G·Pᵀ) = P·adj(G)·Pᵀ for a permutation P, so a state whose rows in
  norm order equal those a pass ended on gives every row the candidate it
  got before, and the same rejection: the pass would change nothing;
- every cycle ends on a hyperplanar phase, which either ran or was
  skipped because the state already sat where the last pass ended, and
  the sort that opens the next cycle is stable, so it keeps the norm
  order.  So from the first sublattice pass on, every directional phase
  starts from the rows the last pass ended on.

For the same reason method 2's opening pass would change nothing after
the first cycle, and runs only in it.  The pre-pass (no sublattice
reduction) screens other candidates, so the first sublattice pass always
runs.  Comparing transform rows rather than Gram entries makes equality
mean identical rows; it costs O(N²) per cycle.  Every pass takes its
adjugate from the state (BasisState.adjugate), so one fraction-free solve
serves the whole run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

from ._state import BasisState
from .directional import Variant, _lagrange, _simplify
from .exact import Basis, _as_rows, _gram, _matmul, _rhombicity, _trace, det, \
    metric_tensor
from .hyperplanar import _hyperplanar


class MatrixClass(str, Enum):
    SMALL_COLUMNAR = "small_columnar"
    LARGE_COLUMNAR = "large_columnar"
    LARGE_HETEROGENEOUS = "large_heterogeneous"
    RANDOM = "random"


#: dimension at and above which columnar/heterogeneous matrices count as large
LARGE_DIM = 15

#: a line is "dense with high values" when at least half its entries are
#: nonzero and at least a quarter exceed this magnitude
HIGH_VALUE = 100


def _dense_high(line, n):
    nonzero = sum(1 for x in line if x)
    high = sum(1 for x in line if abs(x) > HIGH_VALUE)
    return nonzero >= (n + 1) // 2 and high >= (n + 3) // 4


def classify(b) -> MatrixClass:
    """Coarse shape of the matrix, used to pick default reduction options.

    Mostly-zero matrices (at least half the entries zero) with a dense
    high-value column are columnar, or heterogeneous when dense high-value
    rows join the column and the dimension is large (n >= LARGE_DIM).
    Everything else, including uniformly dense matrices, is random.
    """
    rows = _as_rows(b)
    n = len(rows)
    zeros = sum(1 for row in rows for x in row if x == 0)
    if 2 * zeros < n * n:
        return MatrixClass.RANDOM
    col_hit = any(_dense_high([row[c] for row in rows], n) for c in range(n))
    if not col_hit:
        return MatrixClass.RANDOM
    row_hit = any(_dense_high(row, n) for row in rows)
    if n < LARGE_DIM:
        return MatrixClass.SMALL_COLUMNAR
    if row_hit:
        return MatrixClass.LARGE_HETEROGENEOUS
    return MatrixClass.LARGE_COLUMNAR


def _norm_rows(state):
    """The transform rows in norm order, ties by position (see above)."""
    t = state.trans
    return [tuple(t[i]) for i in state.norm_order()]


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class CubifyOptions:
    method: int = 1
    lagrange: Variant = Variant.INSERT
    simplification: Variant = Variant.INSERT
    pre_hyperplanar: bool = False
    max_cycles: int = 1000

    def __post_init__(self):
        if not _is_int(self.method) or self.method not in (1, 2):
            raise ValueError("method must be 1 or 2")
        object.__setattr__(self, "lagrange", Variant(self.lagrange))
        object.__setattr__(self, "simplification", Variant(self.simplification))
        if not isinstance(self.pre_hyperplanar, bool):
            raise ValueError("pre_hyperplanar must be a bool")
        if not _is_int(self.max_cycles) or self.max_cycles < 1:
            raise ValueError("max_cycles must be a positive integer")


#: default option sets per matrix class
AUTO_OPTIONS = {
    MatrixClass.SMALL_COLUMNAR: CubifyOptions(
        method=1, lagrange=Variant.INSERT, simplification=Variant.INSERT),
    MatrixClass.LARGE_COLUMNAR: CubifyOptions(
        method=1, lagrange=Variant.APPEND, simplification=Variant.INSERT),
    MatrixClass.LARGE_HETEROGENEOUS: CubifyOptions(
        method=1, lagrange=Variant.INSERT, simplification=Variant.INSERT,
        pre_hyperplanar=True),
    MatrixClass.RANDOM: CubifyOptions(
        method=2, lagrange=Variant.APPEND, simplification=Variant.APPEND),
}


def default_options(matrix_class) -> CubifyOptions:
    return AUTO_OPTIONS[MatrixClass(matrix_class)]


@dataclass
class ReductionReport:
    r_in: int
    r_out: int
    s_in: int
    s_out: int
    cycles: int
    matrix_class: MatrixClass
    options: CubifyOptions
    auto: bool
    transform: tuple
    timings: dict = field(default_factory=dict)
    r_history: list = field(default_factory=list)
    pre_pass_applied: bool = False
    max_cycles_exhausted: bool = False


def cubify(b, options: CubifyOptions | None = None):
    """Reduce a basis; returns (reduced basis, report).

    With options=None the option set is picked from classify(b).  The report
    carries the exact row transform (reduced = transform · input), checked
    to be unimodular and to give the tracked metric tensor before returning.
    """
    basis = Basis(b)
    t_start = time.perf_counter()
    matrix_class = classify(basis)
    auto = options is None
    opts = default_options(matrix_class) if auto else options

    state = BasisState(basis.rows)
    r_in, s_in = state.r, state.s
    timings = {"pre_hyperplanar": 0.0, "directional": 0.0, "hyperplanar": 0.0}

    if opts.pre_hyperplanar:
        t0 = time.perf_counter()
        _hyperplanar(state, opts.lagrange, reduce_sublattice=False)
        timings["pre_hyperplanar"] += time.perf_counter() - t0

    r = state.r
    r_history = [r]
    cycles = 0
    exhausted = False
    while True:
        r_before = r
        keep = state.copy()
        state.sort_by_norm()
        t0 = time.perf_counter()
        if opts.method == 2 and cycles == 0:
            _hyperplanar(state, opts.lagrange)
        before = _norm_rows(state)
        t1 = time.perf_counter()
        _lagrange(state, opts.lagrange)
        _simplify(state, opts.simplification)
        t2 = time.perf_counter()
        if (opts.method == 1 and cycles == 0) or _norm_rows(state) != before:
            _hyperplanar(state, opts.lagrange)
        timings["directional"] += t2 - t1
        timings["hyperplanar"] += t1 - t0 + time.perf_counter() - t2
        cycles += 1
        r = state.r
        r_history.append(r)
        # each cycle-end state is checked once: a discarded one here, keep
        # once this cycle replaces it, the returned one by the exit check
        if r >= r_before:
            # no strict progress: hand back the pre-cycle list
            assert state.consistent()
            state = keep
            break
        assert cycles == 1 or keep.consistent()
        if cycles >= opts.max_cycles:
            exhausted = True
            break

    transform = tuple(tuple(r) for r in state.trans)
    # exit self-check: the transform must be unimodular, and the output
    # (transform · input by construction) must have the tracked metric
    # tensor, which R and S are computed from.  A unimodular transform of
    # the validated input gives a nonsingular output, so Basis need not
    # take its determinant again
    if abs(det(transform)) != 1:
        raise AssertionError("transform is not unimodular")
    reduced = Basis._checked_elsewhere(state.rows)
    gram = _gram(reduced.rows)
    if gram != state.gram:
        raise AssertionError("output metric tensor differs from the tracked one")

    timings["total"] = time.perf_counter() - t_start
    report = ReductionReport(
        r_in=r_in, r_out=_rhombicity(gram), s_in=s_in, s_out=_trace(gram),
        cycles=cycles, matrix_class=matrix_class, options=opts, auto=auto,
        transform=transform, timings=timings, r_history=r_history,
        pre_pass_applied=opts.pre_hyperplanar, max_cycles_exhausted=exhausted)
    return reduced, report


_BAD_SHAPE = "transform shape does not match the input"


def transform_problems(original, reduced, t) -> list:
    """Why t fails to show that reduced = t · original with |det t| = 1.

    Empty exactly when reduced spans original's lattice by way of t.
    """
    orig = _as_rows(original)
    if len(t) != len(orig) or any(len(r) != len(orig) for r in t):
        return [_BAD_SHAPE]
    problems = []
    if _matmul(t, orig) != [list(r) for r in _as_rows(reduced)]:
        problems.append("transform does not map the original to the reduced basis")
    if abs(det(t)) != 1:
        problems.append("transform determinant is not +-1")
    return problems


def verify_problems(original, reduced, report) -> list:
    """Diagnostics for a claimed reduction; empty when everything checks out."""
    problems = transform_problems(original, reduced, report.transform)
    if problems == [_BAD_SHAPE]:
        return problems
    for side, b, r, s in (("input", original, report.r_in, report.s_in),
                          ("output", reduced, report.r_out, report.s_out)):
        # built symmetric, so R and S need no symmetry check
        m = metric_tensor(b)
        for name, got, claimed in (("rhombicity", _rhombicity(m), r),
                                   ("norm sum", _trace(m), s)):
            if got != claimed:
                problems.append("recomputed %s %s %d != reported %d"
                                % (side, name, got, claimed))
    return problems


def verify(original, reduced, report) -> bool:
    """Whether reduced, report.transform and the reported R/S all agree."""
    return not verify_problems(original, reduced, report)
