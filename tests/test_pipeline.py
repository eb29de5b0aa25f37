"""Whole-pipeline properties of cubify over random bases and option sets.

For auto options and every explicit option set, a run must verify against
its transform and reported R and S, and its R must strictly drop at every
cycle but a last, rolled-back one.  Its output must be a fixed point of
the cycles: reducing it again with the reported options hands it back
unchanged, because the first cycle repeats the run's last one.  The rerun
takes the reported options, not auto ones, because the output may
classify differently from the input, and it leaves the pre-pass out: the
pre-pass screens candidates that no cycle tries, so on rare inputs it can
still lower R of an output (R 252 -> 251 on one 7x7 basis found here).
That basis is pinned below as a strict xfail, so a fix of the pre-pass,
or a change that moves the counterexample, shows up.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from cubify import CubifyOptions, Variant, cubify, verify_problems

from test_adjugate import bases
from test_settled_skip import OPTION_SETS


@settings(max_examples=150, deadline=None)
@given(rows=bases(st.integers(1, 7)), options=st.sampled_from(OPTION_SETS))
def test_a_run_verifies_descends_and_is_a_fixed_point(rows, options):
    reduced, report = cubify(rows, options)
    assert verify_problems(rows, reduced, report) == []
    history = report.r_history
    assert len(history) == report.cycles + 1
    assert all(a > b for a, b in zip(history[:-1], history[1:-1]))
    assert report.r_out == min(history)
    if not report.max_cycles_exhausted:
        cycles_only = dataclasses.replace(report.options, pre_hyperplanar=False)
        again, _ = cubify(reduced, cycles_only)
        assert again == reduced


#: a 7x7 basis whose output is not a fixed point of a rerun with the pre-pass
PRE_PASS_COUNTEREXAMPLE = [
    [0, 0, 1, -4, 0, 0, 7], [0, 0, 3, 1, 2, 6, 1], [0, 0, -4, 7, -3, 2, 1],
    [-1, 6, 4, 4, -1, 0, -1], [2, -1, -2, -3, 0, 4, -2], [2, 2, 7, 1, 4, 7, 0],
    [4, 0, 3, 0, 3, 2, 0]]


@pytest.mark.xfail(strict=True, reason="the pre-pass screens shears against "
                   "unreduced rows that no cycle tries, so a rerun with it "
                   "lowers R 252 -> 251")
def test_a_run_with_the_pre_pass_is_a_fixed_point():
    options = CubifyOptions(method=1, lagrange=Variant.APPEND,
                            simplification=Variant.APPEND, pre_hyperplanar=True)
    out, report = cubify(PRE_PASS_COUNTEREXAMPLE, options)
    again, _ = cubify(out, report.options)
    assert again == out
