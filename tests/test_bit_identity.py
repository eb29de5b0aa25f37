"""Pinned output digests: refactors of the reduction must not change results.

Each digest is the SHA-256 of repr((reduced rows, transform, r_history)) for
cubify(b) with automatic options.  The inputs cover every auto option set
the classifier picks on them: het20 (pre-hyperplanar pass, insert
variants), full and columnar (0, 100) draws (method 2, append variants), a
300-digit columnar draw (method 1, insert variants) and a columnar n = 16
draw (method 1, append division, insert simplification).  Two more pin
het20 as perfbench's het20 workload feeds it: rows permuted and signed by
random.Random(1), matrices 0 and 1.  Two pin perfbench's dense-hyp
workload at seed 1: full n = 12 draws with entries in (0, 100) and
generator seeds 1_000_000 and 1_000_001.  One more digest covers a full
n = 10 draw under all 16 explicit option sets.  Three pin inputs on which
the hyperplanar adjugate is carried across several passes: a full n = 20
draw with entries in (0, 100), and full n = 8 and n = 12 draws with entries
in (-10^50, 10^50); on the n = 12 draw the one adjugate solve takes over
half of cubify's time.  Two pin inputs with entries in (0, 100) on which
screenings use the tracked off pairs most: on a full n = 24 draw most
sublattice divisions jump between them instead of sweeping, and on a
columnar n = 30 draw most screenings find none and divide nothing.  A
digest changes only when the reduction takes a different path, so a
change here needs a stated reason, not an updated constant.
"""

import hashlib
import itertools
import random

import pytest

from cubify import Basis, CubifyOptions, GeneratorSpec, Variant, cubify, generate
from cubify.cli import load_matrix

from _helpers import DATA

PINNED = {
    "het20": "5e7ff74bd48742b0256940232ef00b70580565ed5f8a3e8df07567445603dc0e",
    "full-5": "be2c7f02892f133193740cf4316fae669a5a535d340640f3a506795391aee536",
    "full-10": "dbf9f6d587b050e4f6aec92e4f222f05338b2ba39d5eff992689cc51ad5fda11",
    "full-12": "1a72e7a001361eaa5795890a3238d7e2fa1938a58196c1578cc70c3ce543b6b0",
    "columnar-5": "56b588193bbd7c639fbbbafae57900170f1036de16aae0bd9e3de8a13964d702",
    "columnar-10": "6b4daeac893638d7db526aa6f8f2a563c7b801020435b1f5113b769f67919a93",
    "columnar-12": "174048f75e705a6701c59c1612466aa3abb8df101db5498c8c34385a986b98bc",
    "columnar-4-bigint": "0ad15bea0b381611738f5c5cd9051d711e0086bc04ae7f070aa9a0cbd7818923",
    "columnar-16": "3d10c77923cf18f1e9e388754ebd2b376f2a96a47ab44a184dd581009a77a821",
}

#: matrices 0 and 1 of perfbench's het20 workload at seed 1
HET20_PERMUTED = {
    0: "428486b464a8f673329d20eb20a3608a5acbd95b9d833da93104cd1f2aec3ca1",
    1: "7873fead8dd0ab9ebdb4ffbb6eca44c06b3d0a0be8f22a2b2aa909b8865c3eea",
}

#: matrices 0 and 1 of perfbench's dense-hyp workload at seed 1
DENSE_HYP = {
    0: "4d33b57caa3ade5a01c9d86bbccab76c1922634659dc071f3eecb5c4e4a7634d",
    1: "b06deb01fab6638fd0e47a8285804f60b41f080f5a94faed4fde7cc651ae549d",
}

#: inputs whose runs carry the adjugate across several hyperplanar passes
CARRIED = {
    "full-20": (GeneratorSpec("full", 20, (0, 100), seed=20),
                "8092694fa4de38f0c5dc2042468141c3df110ba988e9117af5f0e95ea1c5cb9d"),
    "full-8-e50": (GeneratorSpec("full", 8, (-10 ** 50, 10 ** 50), seed=8),
                   "97d29fcd03556ad1198ab65fa29bf96f90ba8a1ec5c8191bc5e9ed6cdc1492e0"),
    "full-12-e50": (GeneratorSpec("full", 12, (-10 ** 50, 10 ** 50), seed=12),
                    "dc3e764f7f5ee5e9a1b3fe5d022c0fff2c1b734b0a7d845cb191314b15669d82"),
}

#: inputs on which screenings use the tracked off pairs most
SUBLATTICE = {
    "full-24": (GeneratorSpec("full", 24, (0, 100), seed=24),
                "bcd93c58c56a4b8fda53fc2ec7f2ee75def8a235f2dc1a73e34c139fd89e9088"),
    "columnar-30": (GeneratorSpec("columnar", 30, (0, 100), seed=30),
                    "e3f27ddd989e5a2a9cb1d5f7f4ca3efac726a4bb39c646bc3abbe27135b524b6"),
}

#: full n = 10, entries in (-1000, 1000), seed 10, under every explicit
#: combination of method, both variants and the pre-hyperplanar pass
ALL_OPTIONS = "8727c1307477dd874e7721808722e9b59b6b1817c534396278ce691aacda941a"


def _het20_permuted(i):
    """Matrix i of perfbench's het20 workload at seed 1: rows of the file
    permuted and signed by random.Random(1)."""
    base = load_matrix(DATA / "heterogeneous_20x20.txt").rows
    n = len(base)
    rng = random.Random(1)
    for _ in range(i + 1):
        order = rng.sample(range(n), n)
        signs = [rng.choice((1, -1)) for _ in range(n)]
    return Basis([[s * x for x in base[k]] for k, s in zip(order, signs)])


def _dense_hyp(i):
    """Matrix i of perfbench's dense-hyp workload at seed 1."""
    return generate(GeneratorSpec("full", 12, (0, 100), seed=1_000_000 + i))


def _input(name):
    if name == "het20":
        return load_matrix(DATA / "heterogeneous_20x20.txt")
    if name == "columnar-4-bigint":
        return generate(GeneratorSpec("columnar", 4, (10 ** 299, 10 ** 300 - 1),
                                      seed=4))
    if name == "columnar-16":
        return generate(GeneratorSpec("columnar", 16, (0, 1000), seed=16))
    family, n = name.split("-")
    return generate(GeneratorSpec(family, int(n), (0, 100), seed=int(n)))


def _digest(b):
    reduced, report = cubify(b)
    text = repr((reduced.rows, report.transform, tuple(report.r_history)))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_cubify_output_digest_is_pinned(name):
    assert _digest(_input(name)) == PINNED[name]


@pytest.mark.parametrize("i", sorted(HET20_PERMUTED))
def test_permuted_het20_digest_is_pinned(i):
    assert _digest(_het20_permuted(i)) == HET20_PERMUTED[i]


@pytest.mark.parametrize("i", sorted(DENSE_HYP))
def test_dense_hyp_digest_is_pinned(i):
    assert _digest(_dense_hyp(i)) == DENSE_HYP[i]


@pytest.mark.parametrize("name", sorted(CARRIED))
def test_carried_adjugate_digest_is_pinned(name):
    spec, digest = CARRIED[name]
    assert _digest(generate(spec)) == digest


@pytest.mark.parametrize("name", sorted(SUBLATTICE))
def test_sublattice_division_digest_is_pinned(name):
    spec, digest = SUBLATTICE[name]
    assert _digest(generate(spec)) == digest


def test_every_explicit_option_set_is_pinned():
    b = generate(GeneratorSpec("full", 10, (-1000, 1000), seed=10))
    outputs = []
    for method, lag, simp, pre in itertools.product((1, 2), Variant, Variant,
                                                    (False, True)):
        reduced, report = cubify(b, CubifyOptions(
            method=method, lagrange=lag, simplification=simp,
            pre_hyperplanar=pre))
        outputs.append((reduced.rows, report.transform,
                        tuple(report.r_history)))
    text = repr(tuple(outputs))
    assert hashlib.sha256(text.encode()).hexdigest() == ALL_OPTIONS
