"""Marking strategies, convergence orders, and the adaptive loop."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import mixed_square, perturbed_crisscross
from hdgbounds import (BoundsResult, Bulk, ErrorDistribution, OutputFunctional,
                       ProblemData, Uniform, Workspace, adaptive_loop, builtin,
                       convergence_order, mark, unit_square_crisscross)
from hdgbounds import reconstruct as rc
from hdgbounds import adapt, hdg, workspace
from hdgbounds.adapt import run_pipeline


class TestMarking:
    def test_bulk_prefix_rule(self):
        gaps = np.array([4.0, 3.0, 2.0, 1.0])
        assert list(mark(gaps, Bulk(0.5))) == [0, 1]  # 4+3 >= 0.5*10

    def test_error_distribution_boundary_case(self):
        g = 0.25
        gaps = np.full(8, g)
        marked = mark(gaps, ErrorDistribution(8 * g))
        assert len(marked) == 8  # >= at the threshold marks everything

    def test_bulk_theta_one_marks_all_nonzero(self):
        gaps = np.array([1.0, 0.0, 2.0, 0.0, 3.0])
        marked = mark(gaps, Bulk(1.0))
        assert list(marked) == [0, 2, 4]

    def test_uniform_marks_all(self):
        assert len(mark(np.ones(5), Uniform())) == 5

    def test_all_zero_gaps_empty(self):
        assert len(mark(np.zeros(4), ErrorDistribution(1.0))) == 0
        assert len(mark(np.zeros(4), Bulk(0.5))) == 0

    def test_bulk_monotone_in_theta(self, rng):
        for _ in range(20):
            gaps = rng.uniform(0, 1, size=rng.integers(2, 30))
            t1, t2 = sorted(rng.uniform(0.05, 1.0, size=2))
            m1 = set(mark(gaps, Bulk(t1)))
            m2 = set(mark(gaps, Bulk(t2)))
            assert m1 <= m2

    def test_bulk_tie_break_by_index(self):
        gaps = np.array([1.0, 2.0, 2.0, 1.0])
        marked = mark(gaps, Bulk(0.5))
        assert list(marked) == [1, 2]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Bulk(0.0)
        with pytest.raises(ValueError):
            ErrorDistribution(0.0)
        with pytest.raises(ValueError):
            mark(np.array([-1.0]), Uniform())


class TestConvergenceOrder:
    def test_published_value(self):
        assert abs(convergence_order(5.47e-3, 16, 3.19e-4, 64) - 4.0997) < 1e-3

    def test_equal_errors(self):
        assert convergence_order(1e-3, 16, 1e-3, 64) == 0.0

    def test_power_law(self):
        for n1, n2 in ((10, 40), (16, 256)):
            e1, e2 = n1 ** -2.0, n2 ** -2.0
            assert abs(convergence_order(e1, n1, e2, n2) - 4.0) < 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            convergence_order(0.0, 16, 1e-3, 64)
        with pytest.raises(ValueError):
            convergence_order(1e-3, 16, 1e-3, 16)


class TestAdaptiveLoop:
    def test_target_met_immediately(self):
        prob = builtin("example2_s1")
        run = adaptive_loop(prob.initial_mesh(), prob.data, prob.out, p=1,
                            strategy=Bulk(0.5), target_gap=1.0,
                            refiner=prob.refiner)
        assert run.converged and len(run.records) == 1
        assert run.records[0].marked == 0

    def test_example1_p3_uniform_converges_fast(self):
        prob = builtin("example1_s1")
        run = adaptive_loop(prob.initial_mesh(), prob.data, prob.out, p=3,
                            strategy=Uniform(), target_gap=1e-8,
                            refiner="red", optimize=True,
                            uniform_family=prob.uniform_family)
        assert run.converged
        assert run.records[-1].nel <= 256
        # published half gap at the final level
        assert abs(run.records[-1].bounds.half_gap - 6.73e-10) < 0.15 * 6.73e-10

    def test_example2_bulk_trajectory(self):
        prob = builtin("example2_s1")
        run = adaptive_loop(prob.initial_mesh(), prob.data, prob.out, p=2,
                            strategy=Bulk(0.5), target_gap=1e-5,
                            refiner="bisect", optimize=True)
        assert run.converged
        # published trajectory checkpoints (40, 4.58e-04) ... (152, 4.47e-06)
        nels = run.nels
        hgs = run.half_gaps
        assert np.all(np.diff(nels) >= 0)
        for n_ref, h_ref in ((40, 4.58e-04), (152, 4.47e-06)):
            i = int(np.argmin(np.abs(nels - n_ref)))
            assert abs(nels[i] - n_ref) <= 0.25 * n_ref
            assert abs(hgs[i] - h_ref) <= 0.5 * h_ref
        # final mesh count within 1.5x of the published 152
        assert run.records[-1].nel <= 1.5 * 152
        # containment at every iteration
        for rec in run.records:
            assert rec.bounds.contains(prob.exact_s, 1e-12)

    def test_iteration_cap_reported(self):
        prob = builtin("example2_s1")
        run = adaptive_loop(prob.initial_mesh(), prob.data, prob.out, p=1,
                            strategy=Bulk(0.5), target_gap=1e-12,
                            max_iter=3, refiner="bisect")
        assert not run.converged
        assert len(run.records) == 3

    def test_convergence_reads_half_gap(self, monkeypatch):
        # s_plus - s_minus cancels a small gap in round-off; the loop tests
        # 2 half_gap, the sum of the element contributions, which here stays
        # far above the target although s_plus == s_minus
        def pipeline(mesh, *args, **kwargs):
            return BoundsResult(s_minus=0.5, s_plus=0.5, kappa=1.0,
                                gap_elements=np.full(mesh.n_elements, 1e-3),
                                half_gap=0.5e-3 * mesh.n_elements)
        monkeypatch.setattr(adapt, "run_pipeline", pipeline)
        prob = builtin("example2_s1")
        run = adaptive_loop(prob.initial_mesh(), prob.data, prob.out, p=1,
                            strategy=Bulk(0.5), target_gap=1e-6, max_iter=2,
                            refiner=prob.refiner)
        assert not run.converged
        assert len(run.records) == 2 and run.records[0].marked > 0

    def test_unknown_refiner_rejected(self):
        prob = builtin("example2_s1")
        with pytest.raises(ValueError):
            adaptive_loop(prob.initial_mesh(), prob.data, prob.out, p=1,
                          refiner="pink")

    def test_no_iteration_rejected(self):
        # a run of no iteration has no bounds and no final mesh to report
        prob = builtin("example2_s1")
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            adaptive_loop(prob.initial_mesh(), prob.data, prob.out, p=1,
                          max_iter=0)


class TestPipeline:
    def test_certificate_check_runs(self):
        prob = builtin("example1_s1")
        res = run_pipeline(prob.initial_mesh(), prob.data, prob.out, p=1)
        assert res.contains(prob.exact_s)
        assert res.s_h is not None

    def test_one_factorization_per_interval(self, monkeypatch):
        calls = []
        splu = hdg.spla.splu

        def counting_splu(A, *args, **kwargs):
            calls.append(A.shape)
            return splu(A, *args, **kwargs)

        monkeypatch.setattr(hdg.spla, "splu", counting_splu)
        prob = builtin("example1_s1")
        res = run_pipeline(prob.initial_mesh(), prob.data, prob.out, p=1)
        assert res.contains(prob.exact_s)
        assert len(calls) == 1

    def test_nan_residual_fails_certificate_gate(self, monkeypatch):
        # a NaN that is not the first residual is dropped by max()
        real = rc.potential_residuals

        def nan_continuity(ws, rec):
            return {**real(ws, rec), "continuity": float("nan")}

        monkeypatch.setattr(rc, "potential_residuals", nan_continuity)
        prob = builtin("example1_s1")
        with pytest.raises(RuntimeError, match="certificate violated"):
            run_pipeline(prob.initial_mesh(), prob.data, prob.out, 1)

    @pytest.mark.parametrize("optimize", [False, True])
    def test_each_field_evaluated_once_per_pair(self, monkeypatch, optimize):
        # the audit, kappa, eta and S all read one evaluated record per
        # pair, which holds grad u~ as coefficients, so no gradient is
        # evaluated at the quadrature points; the datum f is also read by
        # the assembly, f_O by s_h.  The local optimization reads the
        # residual's coefficients too (one more grad_coeffs per pair) and
        # evaluates no field at the quadrature points.
        # Counted in elements: the assembly reads f once per element, block
        # by block, also when its blocks hold 7 of the 256 elements
        monkeypatch.setattr(workspace, "_BLOCK", 7)
        counts = Counter()

        def counting(name, fn, elements):
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[name] += elements(args, result)
                return result
            return counted

        for cls, attr in ((rc.EquilibratedFlux, "eval_values"),
                          (rc.EquilibratedFlux, "eval_divergence"),
                          (rc.ContinuousPotential, "eval_values"),
                          (rc.ContinuousPotential, "eval_grads"),
                          (rc.ContinuousPotential, "grad_coeffs"),
                          (Workspace, "proj_p")):
            name = f"{cls.__name__}.{attr}"
            monkeypatch.setattr(cls, attr, counting(
                name, getattr(cls, attr), lambda args, res: len(res)))
        prob = builtin("example1_s1")

        def points(args, res):  # x at the volume quadrature points: (ne, nq)
            return np.shape(args[0])[0]

        data = replace(prob.data, f=counting("f", prob.data.f, points))
        out = replace(prob.out, f_O=counting("f_O", prob.out.f_O, points))
        mesh = unit_square_crisscross(2)
        res = run_pipeline(mesh, data, out, p=2, optimize=optimize)
        assert res.contains(prob.exact_s)
        ne = mesh.n_elements
        assert counts == {"EquilibratedFlux.eval_values": 2 * ne,
                          "EquilibratedFlux.eval_divergence": 2 * ne,
                          "ContinuousPotential.eval_values": 2 * ne,
                          "ContinuousPotential.grad_coeffs":
                              (4 if optimize else 2) * ne,
                          "Workspace.proj_p": 2 * ne, "f": 2 * ne,
                          "f_O": 3 * ne}

    def test_mesh_released_after_pipeline(self):
        import gc
        import weakref
        prob = builtin("example2_s1")
        mesh = prob.initial_mesh()
        ref = weakref.ref(mesh)
        res = run_pipeline(mesh, prob.data, prob.out, p=1)
        del mesh
        gc.collect()
        assert ref() is None
        assert res.contains(prob.exact_s)


def _neumann_case():
    """mixed_square(2) with Neumann data on its left edge."""
    data = ProblemData(f=lambda x, y: 1.0 + x * y, g_D=lambda x, y: x * y,
                       g_N=lambda x, y: 1.0 + 0.0 * x)
    out = OutputFunctional(f_O=lambda x, y: 1.0 + 0.0 * x,
                           g_N_O=lambda x, y: 1.0 + y)
    return mixed_square(2), data, out, False


def _builtin_case(name, mesh, optimize):
    prob = builtin(name)
    return mesh, prob.data, prob.out, optimize


BLOCK_CASES = {
    "perturbed": lambda: _builtin_case(
        "example1_s1",
        perturbed_crisscross(0.015, base=unit_square_crisscross(2)), False),
    # the band extension and the optimization read a blocked solve
    "example1_s2_optimize": lambda: _builtin_case(
        "example1_s2", unit_square_crisscross(2), True),
    "mixed_square": _neumann_case,
}


class TestElementBlocks:
    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_blocks_of_seven_match_one_block(self, case, monkeypatch):
        # 256 elements in one block, then in 37 blocks of 7 or fewer; the
        # certificate audit runs inside both
        mesh, data, out, optimize = BLOCK_CASES[case]()
        assert mesh.n_elements == 256
        ref = run_pipeline(mesh, data, out, p=2, optimize=optimize)
        monkeypatch.setattr(workspace, "_BLOCK", 7)
        got = run_pipeline(mesh, data, out, p=2, optimize=optimize)
        for a, b in ((got.s_minus, ref.s_minus), (got.s_plus, ref.s_plus)):
            assert abs(a - b) <= 1e-13 * abs(b)
