"""The benchmark's tracer (perfbench/tracing.py) against the library: every
trace point it wraps still exists, and every span counter reads what the
library hands it: the residual dicts, the skeleton matrix and its LU
factors, and the pair local_optimize works on."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from hdgbounds import Workspace, builtin, certified_pairs, solve, unit_square_crisscross

_spec = importlib.util.spec_from_file_location(
    "tracing", Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

# the modules perfbench/run.py hands to the tracer
LAYERS = ("mesh", "femcore", "workspace", "hdg", "reconstruct", "bounds",
          "adapt", "problems", "cli")
# the points the library no longer has: one solve serves the primal and the
# adjoint problem, and workspaces are built, not looked up
GONE = ["hdg.solve_primal", "hdg.solve_adjoint", "workspace.get"]


@pytest.fixture
def modules():
    return {n: importlib.import_module(f"hdgbounds.{n}") for n in LAYERS}


def test_tracer_finds_the_audit_and_solve_points(modules):
    prob = builtin("example1_s1")
    ws = Workspace(unit_square_crisscross(1), 1)
    (pair,) = certified_pairs(ws, solve(ws, [prob.data]), [prob.data])
    rc = modules["reconstruct"]
    original = rc.flux_residuals
    tracer = tracing.Tracer()
    patches = tracing.Patches(tracer, modules).install()
    try:
        assert patches.skipped == GONE
        assert rc.flux_residuals is not original
        res = rc.flux_residuals(ws, rc.evaluate(ws, *pair, prob.data))
    finally:
        patches.remove()
    assert isinstance(res, dict)
    spans = [s for s in tracer.spans if s["name"] == "reconstruct.flux_residuals"]
    assert len(spans) == 1 and spans[0]["worst"] == max(res.values())
    assert rc.flux_residuals is original


def test_every_span_counter_reads_the_library(modules):
    # the band problem with optimization runs every counted trace point:
    # one factorization, local_optimize on both pairs, two audits of each
    prob = builtin("example1_s2")
    mesh = unit_square_crisscross(1)
    tracer = tracing.Tracer()
    patches = tracing.Patches(tracer, modules).install()
    try:
        modules["adapt"].run_pipeline(mesh, prob.data, prob.out, 2, optimize=True)
    finally:
        patches.remove()

    def named(name):
        return [s for s in tracer.spans if s["name"] == name]
    optimize = named("reconstruct.local_optimize")
    assert [s["elements"] for s in optimize] == [mesh.n_elements] * 2
    (splu,) = named("hdg.splu")
    assert 0 < splu["A_nnz"] <= splu["lu_nnz"]
    worst = [s["worst"] for name in ("reconstruct.flux_residuals",
                                     "reconstruct.potential_residuals")
             for s in named(name)]
    assert len(worst) == 4 and all(0.0 <= w <= 1e-9 for w in worst)

    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["reconstruct.optimize_elements"] == 2 * mesh.n_elements
    assert metrics["hdg.factorizations"] == metrics["hdg.assemble_calls"] == 1
    assert (metrics["hdg.A_nnz"], metrics["hdg.lu_nnz"]) == (
        splu["A_nnz"], splu["lu_nnz"])
    assert metrics["reconstruct.worst_residual"] == max(worst)
    assert metrics["adapt.iterations"] == 1
