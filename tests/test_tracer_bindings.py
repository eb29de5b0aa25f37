"""The benchmark's tracer must still find what it wraps in the package.

perfbench/tracer.py binds layers and counters to module attributes by name
and reports a binding it cannot resolve as an absent layer instead of
failing.  A refactor that renames or moves a bound function would therefore
blind a per-layer metric without any error; this test loads the tracer as it
stands and resolves every binding.
"""

import importlib.util
import random
from pathlib import Path
from unittest import mock

from cubify import CubifyOptions, GeneratorSpec, _state, cubify, generate

from _helpers import random_basis

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"

#: bindings whose functions left the package; their layers read absent
KNOWN_MISSING = {
    "cubify.hyperplanar:hyperplane_normal",
    "cubify.hyperplanar:solve_in_sublattice",
    "cubify.exact:_solve_exact",
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_binding_resolves():
    tracer = _load_tracer()
    missing = {"%s:%s" % (module, path)
               for _, module, path in tracer.TIMED + tracer.COUNTED
               if tracer._resolve(module, path) is None}
    assert missing == KNOWN_MISSING


def test_a_traced_run_counts_the_screenings_and_times_the_sublattice():
    # resolving is not enough: the pass must call what the tracer wraps
    tracer = _load_tracer()
    rows = random_basis(6, random.Random(5), lo=0, hi=100)
    with tracer.Tracer() as t:
        for method in (1, 2):
            cubify(rows, CubifyOptions(method=method))
        spans = {span[0] for span in t.spans}
    assert tracer.installed_wrappers() == []
    assert t.counts["hyperplanar.screenings"] > 0
    assert t.counts["state.replaces"] > 0
    assert t.counts["hyperplanar.accepted"] > 0
    assert {"hyperplanar", "hyperplanar.sublattice_lagrange",
            "directional.lagrange"} <= spans


def test_a_traced_run_still_solves_once():
    # the wrapper around cubifier._hyperplanar must leave the state's
    # adjugate in place for the next pass
    tracer = _load_tracer()
    rows = generate(GeneratorSpec("full", 12, (0, 100), seed=1_000_000))
    solves = []
    solve = _state._adjugate

    def counting(gram):
        solves.append(gram)
        return solve(gram)

    with mock.patch.object(_state, "_adjugate", counting):
        with tracer.Tracer() as t:
            cubify(rows)
    passes = [span for span in t.spans if span[0] == "hyperplanar"]
    assert len(passes) >= 2
    assert len(solves) == 1
