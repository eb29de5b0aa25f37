"""Seeded random matrix generation and reduction batteries.

Two families: "full" draws every entry uniformly from the entry range,
"columnar" starts from the identity and redraws the last column.  measure
reduces one matrix with each requested algorithm, times it and checks each
output against the algorithm's unimodular transform.  Batteries run measure
on `count` matrices (seeds seed, seed+1, ...) and aggregate mean reduction
factors R_in/R_out and S_in/S_out.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .cubifier import _is_int, cubify, transform_problems
from .exact import Basis, SingularBasisError, metric_tensor, norm_sum, \
    rhombicity
from .lll import _lll

FAMILIES = ("full", "columnar")
ALGORITHMS = ("cubify", "lll")
LLL_ALPHA = Fraction(3, 4)


class GenerationError(RuntimeError):
    pass


class BatteryVerificationError(AssertionError):
    pass


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    dim: int
    entry_range: tuple = (0, 100)
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError("unknown family %r" % (self.family,))
        if not _is_int(self.dim) or self.dim < 2:
            raise ValueError("dim must be an integer of at least 2")
        try:
            lo, hi = self.entry_range
        except (TypeError, ValueError):
            # not a pair: an int, None, or one or three entries
            lo = hi = None
        if not (_is_int(lo) and _is_int(hi)) or lo >= hi:
            raise ValueError("entry range must be two increasing integers")
        if not _is_int(self.seed):
            raise ValueError("seed must be an integer")


def generate(spec: GeneratorSpec) -> Basis:
    """Draw one nonsingular matrix for the spec; singular draws are retried.

    Deterministic for a given spec (seeded Mersenne Twister).  Gives up with
    a "persistent singularity" error after 100 attempts.
    """
    rng = random.Random(spec.seed)
    lo, hi = spec.entry_range
    n = spec.dim
    for _ in range(100):
        if spec.family == "full":
            rows = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        else:
            rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            for i in range(n):
                rows[i][n - 1] = rng.randint(lo, hi)
        try:
            return Basis(rows)
        except SingularBasisError:
            continue
    raise GenerationError("persistent singularity for %r" % (spec,))


@dataclass
class MatrixRecord:
    algorithm: str
    seed: int | None
    r_in: int
    r_out: int
    s_in: int
    s_out: int
    seconds: float
    basis: Basis | None = None
    reduced: Basis | None = None
    report: object = None

    @property
    def r_factor(self) -> Fraction:
        return Fraction(self.r_in, self.r_out)

    @property
    def s_factor(self) -> Fraction:
        return Fraction(self.s_in, self.s_out)


@dataclass
class BatteryResult:
    spec: GeneratorSpec
    count: int
    algorithms: tuple
    records: list = field(default_factory=list)
    flags: list = field(default_factory=list)

    def for_algorithm(self, algorithm):
        return [rec for rec in self.records if rec.algorithm == algorithm]

    def mean_r_factor(self, algorithm) -> float:
        recs = self.for_algorithm(algorithm)
        return float(sum(rec.r_factor for rec in recs) / len(recs))

    def mean_s_factor(self, algorithm) -> float:
        recs = self.for_algorithm(algorithm)
        return float(sum(rec.s_factor for rec in recs) / len(recs))

    def mean_seconds(self, algorithm) -> float:
        recs = self.for_algorithm(algorithm)
        return sum(rec.seconds for rec in recs) / len(recs)

    def summary(self) -> dict:
        return {alg: {"mean_r_factor": self.mean_r_factor(alg),
                      "mean_s_factor": self.mean_s_factor(alg),
                      "mean_seconds": self.mean_seconds(alg)}
                for alg in self.algorithms}


def measure(basis, algorithms=ALGORITHMS, seed=None) -> list:
    """Reduce and time basis with each algorithm; one record each.

    Every output is checked against its transform (transform_problems); a
    failure raises BatteryVerificationError naming the algorithm and the
    seed, or the input when seed is None.
    """
    m_in = metric_tensor(basis)
    r_in, s_in = rhombicity(m_in), norm_sum(m_in)
    records = []
    for alg in algorithms:
        t0 = time.perf_counter()
        if alg == "cubify":
            reduced, report = cubify(basis)
            transform = report.transform
        elif alg == "lll":
            (reduced, transform), report = _lll(basis, LLL_ALPHA), None
        else:
            raise ValueError("unknown algorithm %r" % (alg,))
        seconds = time.perf_counter() - t0
        problems = transform_problems(basis, reduced, transform)
        if problems:
            raise BatteryVerificationError("%s failed its check on %s: %s" % (
                alg, "the input" if seed is None else "seed %d" % seed,
                "; ".join(problems)))
        m_out = metric_tensor(reduced)
        records.append(MatrixRecord(
            algorithm=alg, seed=seed, r_in=r_in, r_out=rhombicity(m_out),
            s_in=s_in, s_out=norm_sum(m_out), seconds=seconds,
            basis=basis, reduced=reduced, report=report))
    return records


def run_battery(spec: GeneratorSpec, count: int,
                algorithms=ALGORITHMS, keep_outputs=False) -> BatteryResult:
    """Reduce count seeded matrices with each algorithm and aggregate.

    Matrix i uses seed spec.seed + i, so any record can be regenerated in
    isolation.  Each matrix goes through measure, so a failed check aborts
    the battery naming the offending seed.  Records keep the input, output
    and report only with keep_outputs.
    """
    if not _is_int(count) or count < 1:
        raise ValueError("count must be a positive integer")
    result = BatteryResult(spec=spec, count=count, algorithms=tuple(algorithms))
    for seed in range(spec.seed, spec.seed + count):
        basis = generate(replace(spec, seed=seed))
        for rec in measure(basis, algorithms, seed):
            if rec.r_out > rec.r_in:
                result.flags.append("%s raised rhombicity at seed %d"
                                    % (rec.algorithm, seed))
            if not keep_outputs:
                rec.basis = rec.reduced = rec.report = None
            result.records.append(rec)
    return result
