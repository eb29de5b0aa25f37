"""corpus_digest.py, the bit-identity check over the whole corpus, must keep
running: as a script, on a two-input subset, it prints the digest that the
same subset gives in process, and that digest is pinned like the ones in
test_bit_identity.py.  With --expect it exits 0 on the pinned digest and 1,
printing both, on any other.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import cubify

import corpus_digest

SCRIPT = Path(corpus_digest.__file__)
SUBSET = ("dense-hyp-0", "bigint-columnar-0")
PINNED = "18eeabec843f52ac1cf62bb2df796fd27c87111129279e359ef975240d44b867"


def test_corpus_has_82_distinct_inputs():
    names = [name for name, _ in corpus_digest.corpus()]
    assert len(names) == len(set(names)) == 82
    assert set(SUBSET) <= set(names)


def test_script_prints_the_pinned_subset_digest():
    argv = [sys.executable, str(SCRIPT)]
    for name in SUBSET:
        argv += ["--only", name]
    out = subprocess.run(argv, capture_output=True, text=True, check=True,
                         timeout=300).stdout
    assert out == PINNED + "\n"
    assert corpus_digest.digest(cubify, set(SUBSET)) == PINNED


@pytest.mark.parametrize("expect, code", [(PINNED, 0), ("0" * 64, 1)])
def test_script_checks_an_expected_digest(expect, code):
    argv = [sys.executable, str(SCRIPT), "--expect", expect]
    for name in SUBSET:
        argv += ["--only", name]
    run = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert run.returncode == code
    assert run.stdout.split() == (
        [PINNED] if code == 0 else ["digest", PINNED, "expected", expect])


def test_script_rejects_an_unknown_input():
    run = subprocess.run([sys.executable, str(SCRIPT), "--only", "nope"],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 2 and "unknown input nope" in run.stderr
