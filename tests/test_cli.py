"""Batch front-end: config handling, artifacts, determinism, exit codes."""

import json
import math

import numpy as np
import pytest

from hdgbounds import cli, write_mesh, unit_square_crisscross
from hdgbounds.cli import (EXIT_CONFIG, EXIT_NOT_CONVERGED, EXIT_OK,
                           EXIT_SOLVER, RunConfig, compile_expression)
from hdgbounds.problems import builtin


class TestExpressions:
    def test_basic_arithmetic(self):
        f = compile_expression("2*x + y^2 - 0.5")
        assert np.allclose(f(np.array([1.0, 0.0]), np.array([2.0, 1.0])),
                           [5.5, 0.5])

    def test_functions_and_constants(self):
        f = compile_expression("sin(pi*x)*sinh(y) + exp(-x)")
        x, y = 0.5, 0.25
        assert abs(f(x, y) - (math.sin(math.pi * x) * math.sinh(y)
                              + math.exp(-x))) < 1e-14

    def test_broadcast_constant(self):
        f = compile_expression("1")
        assert f(np.zeros(4), np.zeros(4)).shape == (4,)

    @pytest.mark.parametrize("expr", [
        "__import__('os')", "x.__class__", "lambda: 1", "open('x')",
        "z + 1", "sin(x, y)",
    ])
    def test_rejects_unsafe_or_unknown(self, expr):
        with pytest.raises((ValueError, SyntaxError)):
            compile_expression(expr)


class TestBuiltins:
    def test_exact_values(self):
        assert abs(builtin("example1_s1").exact_s - 4 / np.pi ** 2) < 1e-15
        assert abs(builtin("example1_s2").exact_s - np.pi ** 2 / 4) < 1e-15
        assert builtin("example2_s1").exact_s == 0.2140758036140825
        assert builtin("example2_s2").exact_s is None

    def test_unknown_id_lists_available(self):
        with pytest.raises(KeyError, match="example1_s1"):
            builtin("nope")


class TestRun:
    def test_small_uniform_study(self, tmp_path):
        cfg = RunConfig(problem="example1_s1", p=2, strategy="uniform",
                        target=1e-6, max_iter=3, out_dir=str(tmp_path))
        assert cli.run(cfg) == EXIT_OK
        csv = (tmp_path / "convergence.csv").read_text().splitlines()
        assert csv[0].startswith("nel,n_edge_dofs,s_minus,s_plus,s_tilde")
        assert csv[1].split(",")[0] == "16"
        report = (tmp_path / "report.txt").read_text()
        assert "s_minus" in report and "order" in report
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["containment_pass"] is True
        assert (tmp_path / "mesh_final.txt").exists()

    def test_deterministic_rerun(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            cfg = RunConfig(problem="example2_s1", p=1, strategy="bulk:0.5",
                            target=1e-3, max_iter=12, out_dir=str(out))
            assert cli.run(cfg) == EXIT_OK
        assert (out1 / "convergence.csv").read_bytes() == \
            (out2 / "convergence.csv").read_bytes()
        assert (out1 / "mesh_final.txt").read_bytes() == \
            (out2 / "mesh_final.txt").read_bytes()

    def test_report_orders_match_convergence_order(self, tmp_path):
        from hdgbounds.adapt import convergence_order
        cfg = RunConfig(problem="example1_s1", p=1, strategy="uniform",
                        target=1e-12, max_iter=3, out_dir=str(tmp_path))
        cli.run(cfg)
        rows = (tmp_path / "convergence.csv").read_text().splitlines()[1:]
        nel = [int(r.split(",")[0]) for r in rows]
        hg = [float(r.split(",")[5]) for r in rows]
        report_lines = (tmp_path / "report.txt").read_text().splitlines()[1:]
        orders = [line.split()[6] for line in report_lines]
        assert orders[0] == "--"
        for i in range(1, len(rows)):
            expect = convergence_order(hg[i - 1], nel[i - 1], hg[i], nel[i])
            assert abs(float(orders[i]) - expect) < 5e-3

    def test_malformed_config_exits_2_without_artifacts(self, tmp_path):
        out = tmp_path / "out"
        cfg = RunConfig(problem="no_such_problem", out_dir=str(out))
        assert cli.run(cfg) == EXIT_CONFIG
        assert not out.exists()

    def test_bad_strategy_string(self, tmp_path):
        cfg = RunConfig(problem="example1_s1", strategy="bogus",
                        out_dir=str(tmp_path))
        assert cli.run(cfg) == EXIT_CONFIG

    def test_unknown_refiner_is_config_error(self, tmp_path):
        cfg = RunConfig(problem="example1_s1", refiner="bogus",
                        out_dir=str(tmp_path / "o"))
        assert cli.run(cfg) == EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name, expr", [
        ("g_D", "(x+y)/(x+y)"),   # NaN only at the mesh vertex (0, 0)
        ("f", "sqrt(x-2)"),       # NaN everywhere in the domain
        ("f", "1/0"),             # constant arithmetic: inf, not ZeroDivisionError
        ("f", "9**9**5"),         # inf, not OverflowError
    ])
    def test_nonfinite_data_exits_3(self, tmp_path, capsys, name, expr):
        mesh_path = tmp_path / "square.txt"
        write_mesh(unit_square_crisscross(0), mesh_path)
        out = tmp_path / "o"
        with np.errstate(divide="ignore", invalid="ignore"):
            code = cli.main(["--mesh", str(mesh_path), f"--{name}", expr,
                             "--max-iter", "1", "--out", str(out)])
        assert code == EXIT_SOLVER
        assert "solver failure: non-finite" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("edit, code, message", [
        ("swap_element_0", EXIT_CONFIG, "non-positive signed area"),
        ("all_neumann", EXIT_CONFIG, "the Dirichlet boundary must be non-empty"),
        # a triangle flattened to height 1e-14 still gets a positive area;
        # the certificate gate, not a singular solve, rejects it
        ("flatten", EXIT_SOLVER, "certificate violated"),
        # element 0 in region 1, and nu given for region 0 only
        ("region_without_nu", EXIT_CONFIG, "region 1 has no diffusivity"),
    ])
    def test_hostile_mesh_fails_loudly(self, tmp_path, capsys, edit, code,
                                       message):
        mesh = unit_square_crisscross(0)
        path = tmp_path / "square.txt"
        write_mesh(mesh, path)
        lines = path.read_text().splitlines()
        nv, ne, nf = map(int, lines[0].split())
        extra = []
        if edit == "swap_element_0":
            v = lines[1 + nv].split()
            lines[1 + nv] = " ".join([v[1], v[0]] + v[2:])
        elif edit == "all_neumann":
            for i in range(1 + nv + ne, 1 + nv + ne + nf):
                lines[i] = " ".join(lines[i].split()[:2] + ["N"])
        elif edit == "region_without_nu":
            lines[1 + nv] = " ".join(lines[1 + nv].split()[:3] + ["1"])
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"nu": {"0": 1.0}}))
            extra = ["--config", str(config)]
        else:
            centre = int(np.flatnonzero(np.all(mesh.vertices == 0.5, axis=1))[0])
            lines[1 + centre] = f"0.5 {1e-14!r}"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert cli.main(["--mesh", str(path), "--f", "1", "--f_O", "1",
                         "--max-iter", "1", "--out", str(out)] + extra) == code
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and message in err
        assert not (out / "summary.json").exists()

    def test_other_value_error_keeps_its_traceback(self, tmp_path,
                                                   monkeypatch):
        # only data errors read as solver failures; a stray ValueError (a
        # shape bug, say) propagates so that its traceback shows
        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")
        monkeypatch.setattr(cli.adapt, "adaptive_loop", broken)
        cfg = RunConfig(problem="example1_s1", p=1, out_dir=str(tmp_path))
        with pytest.raises(ValueError, match="broadcast"):
            cli.run(cfg)

    @pytest.mark.parametrize("problem, strategy, target, max_iter", [
        ("example2_s1", "bulk:0.5", 1e-14, 2),   # out of iterations
        ("example1_s1", "tol:10", 1e-8, 40),     # no element marked
    ])
    def test_non_convergence_exit(self, tmp_path, capsys, problem, strategy,
                                  target, max_iter):
        cfg = RunConfig(problem=problem, p=1, strategy=strategy,
                        target=target, max_iter=max_iter, out_dir=str(tmp_path))
        assert cli.run(cfg) == EXIT_NOT_CONVERGED
        assert capsys.readouterr().err.startswith("not converged after ")
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["converged"] is False

    def test_external_problem(self, tmp_path):
        mesh = unit_square_crisscross(0)
        mesh_path = tmp_path / "square.txt"
        write_mesh(mesh, mesh_path)
        cfg = RunConfig(mesh_file=str(mesh_path),
                        expressions={"f": "2*pi^2*sin(pi*x)*sin(pi*y)",
                                     "f_O": "1"},
                        exact_s=4 / np.pi ** 2,
                        p=1, strategy="uniform", refiner="red",
                        target=1e-3, max_iter=3, out_dir=str(tmp_path / "o"))
        assert cli.run(cfg) == EXIT_OK
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["containment_pass"] is True


class TestMain:
    def test_flags_override_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "problem": "example1_s1", "p": 1, "strategy": "uniform",
            "target": 1e-3, "max_iter": 2, "out_dir": str(tmp_path / "x")}))
        code = cli.main(["--config", str(cfg_path), "--p", "2",
                         "--out", str(tmp_path / "y")])
        assert code == EXIT_OK
        assert (tmp_path / "y" / "summary.json").exists()
        assert json.loads((tmp_path / "y" / "summary.json").read_text())["p"] == 2

    def test_invalid_json_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["--config", str(bad)]) == EXIT_CONFIG

    def test_unknown_config_key(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"problem": "example1_s1",
                                        "bogus_key": 1}))
        assert cli.main(["--config", str(cfg_path)]) == EXIT_CONFIG

    def test_gnuplot_output(self, tmp_path):
        code = cli.main(["--problem", "example2_s1", "--p", "1",
                         "--strategy", "uniform", "--target", "1e-3",
                         "--max-iter", "2", "--gnuplot",
                         "--out", str(tmp_path)])
        assert code in (EXIT_OK, EXIT_NOT_CONVERGED)
        assert (tmp_path / "convergence.dat").read_text().startswith("# nel")
