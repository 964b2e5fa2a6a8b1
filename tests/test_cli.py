"""Batch front-end: config handling, artifacts, determinism, exit codes."""

import json
import math

import numpy as np
import pytest

from conftest import squeezed_crisscross
from hdgbounds import (BoundsResult, Bulk, ErrorDistribution, Uniform, cli,
                       write_mesh, unit_square_crisscross)
from hdgbounds.adapt import IterationRecord
from hdgbounds.cli import (EXIT_CONFIG, EXIT_CONTAINMENT, EXIT_NOT_CONVERGED,
                           EXIT_OK, EXIT_SOLVER, RunConfig, compile_expression,
                           parse_strategy)
from hdgbounds.mesh import refine_bisection
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

    def test_explicit_refiner_used_under_uniform(self, tmp_path):
        # example1_s1's uniform meshes are its criss-cross family; a given
        # --refiner replaces the family
        assert cli.main(["--problem", "example1_s1", "--p", "1", "--strategy",
                     "uniform", "--refiner", "bisect", "--max-iter", "2",
                     "--out", str(tmp_path)]) == EXIT_NOT_CONVERGED
        rows = (tmp_path / "convergence.csv").read_text().splitlines()
        mesh0 = unit_square_crisscross(0)
        want = refine_bisection(mesh0, np.arange(mesh0.n_elements)).n_elements
        assert [r.split(",")[0] for r in rows[1:]] == ["16", str(want)]

    def test_csv_row_cells(self):
        # one function writes all eleven cells of a row; s_h and err_s_tilde
        # are empty without the raw output or an exact output
        b = BoundsResult(s_minus=0.25, s_plus=0.75, kappa=2.0,
                         gap_elements=np.full(16, 1 / 32), half_gap=0.25,
                         s_h=0.375)
        rec = IterationRecord(nel=16, n_edge_dofs=56, bounds=b, marked=3,
                              seconds=0.0)
        cells = cli._csv_row(rec, 0.4, "bulk:0.5").split(",")
        assert len(cells) == len(cli.CSV_HEADER.split(",")) == 11
        assert cells[:2] == ["16", "56"] and cells[-2:] == ["3", "bulk:0.5"]
        assert cells[2:8] == [format(v, ".12e")
                              for v in (0.25, 0.75, 0.5, 0.25, 2.0, 0.375)]
        assert cells[8] == format(abs(0.4 - 0.5), ".6e")
        b.s_h = None
        cells = cli._csv_row(rec, None, "uniform").split(",")
        assert len(cells) == 11 and cells[7:9] == ["", ""]

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

    def test_unusable_out_dir_exits_2_before_any_solve(self, tmp_path, capsys,
                                                       monkeypatch):
        # a directory under a regular file cannot be made; that used to
        # surface as a traceback from the writers after the whole study
        blocker = tmp_path / "file"
        blocker.write_text("")
        studies = []

        def no_study(*args, **kwargs):
            studies.append(args)
            raise RuntimeError("the study ran")

        monkeypatch.setattr(cli.adapt, "adaptive_loop", no_study)
        code = cli.main(["--problem", "example2_s1", "--p", "1",
                         "--out", str(blocker / "sub")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG and not studies
        assert err.startswith("configuration error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text, strategy", [
        ("uniform", Uniform()),
        ("tol:1e-3", ErrorDistribution(1e-3)),
        ("tol", ErrorDistribution(1e-8)),   # the target gap is the tolerance
        ("bulk:0.5", Bulk(0.5)),
    ])
    def test_strategy_strings(self, text, strategy):
        assert parse_strategy(text, 1e-8) == strategy

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
        # a NaN vertex used to reach the solver and exit 3 on a singular factor
        ("nan_vertex", EXIT_CONFIG, "has a non-finite coordinate"),
        ("all_neumann", EXIT_CONFIG, "the Dirichlet boundary must be non-empty"),
        # a triangle flattened to height 1e-14 still gets a positive area;
        # the certificate gate, not a singular solve, rejects it
        ("flatten", EXIT_SOLVER, "certificate violated"),
        # element 0 in region 1, and nu given for region 0 only
        ("region_without_nu", EXIT_CONFIG, "region 1 has no diffusivity"),
        # the last 3 boundary facets cut off: used to raise StopIteration
        ("truncated", EXIT_CONFIG, "exactly 2 nv + 4 ne + 3 nf values"),
        # the last boundary facet again, reversed and with the other tag
        # (nf raised by one): used to load with the last tag winning
        ("duplicate_facet", EXIT_CONFIG, "is listed twice"),
        # one more vertex that no element uses: used to divide 0 by 0 when
        # averaging the potential at its node
        ("unused_vertex", EXIT_CONFIG, "vertex 13 is used by no element"),
        # used to load and fail in the skeleton solve (exit 3)
        ("infinite_nu", EXIT_CONFIG, "got nu[0] = inf"),
        ("unknown_tag", EXIT_CONFIG, "unknown boundary tag 'R' (expected D or N)"),
        ("empty", EXIT_CONFIG, "elements must be a non-empty (ne, 3) array"),
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
        elif edit in ("region_without_nu", "infinite_nu"):
            if edit == "region_without_nu":
                lines[1 + nv] = " ".join(lines[1 + nv].split()[:3] + ["1"])
            config = tmp_path / "config.json"
            config.write_text(json.dumps(
                {"nu": {"0": 1.0 if edit == "region_without_nu" else np.inf}}))
            extra = ["--config", str(config)]
        elif edit == "unknown_tag":
            lines[-1] = " ".join(lines[-1].split()[:2] + ["R"])
        elif edit == "empty":
            lines = ["0 0 0"]
        elif edit == "truncated":
            lines = lines[:-3]
        elif edit == "unused_vertex":
            lines.insert(1 + nv, "2.0 2.0")
            lines[0] = f"{nv + 1} {ne} {nf}"
        elif edit == "duplicate_facet":
            a, b, t = lines[-1].split()
            lines.append(f"{b} {a} {'N' if t == 'D' else 'D'}")
            lines[0] = f"{nv} {ne} {nf + 1}"
        else:
            centre = int(np.flatnonzero(np.all(mesh.vertices == 0.5, axis=1))[0])
            lines[1 + centre] = ("nan 1.0" if edit == "nan_vertex"
                                 else f"0.5 {1e-14!r}")
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

    @pytest.mark.parametrize("target, max_iter, converged", [
        (1e-3, 3, True),
        (1e-14, 2, False),   # exit 5 outranks exit 4
    ])
    def test_containment_violation_exit(self, tmp_path, capsys, target,
                                        max_iter, converged):
        # a wrong exact value lies outside the certified interval: the
        # study still writes every artifact, then fails loudest of all
        code = cli.main(["--problem", "example1_s1", "--p", "1",
                         "--strategy", "uniform", "--target", str(target),
                         "--max-iter", str(max_iter), "--exact-s", "0.5",
                         "--out", str(tmp_path)])
        assert code == EXIT_CONTAINMENT
        assert capsys.readouterr().err == ("containment violation: exact "
                                           "output outside certified bounds\n")
        for name in ("convergence.csv", "mesh_final.txt", "report.txt",
                     "summary.json"):
            assert (tmp_path / name).stat().st_size > 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["containment_pass"] is False
        assert summary["converged"] is converged

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

    @pytest.mark.parametrize("eps, code", [(1e-2, EXIT_OK), (1e-4, EXIT_SOLVER)])
    def test_squeezed_mesh_contains_or_exits_3(self, tmp_path, capsys, eps,
                                               code):
        # a column of needle elements, width 2 eps against the pitch 1/8,
        # read with --mesh (ROADMAP item 18): eps = 1e-2 contains s, and
        # eps = 1e-4 is refused by the certificate audit before any
        # artifact is written
        mesh_path = tmp_path / "squeezed.txt"
        write_mesh(squeezed_crisscross(2, eps), mesh_path)
        out = tmp_path / "o"
        assert cli.main(["--mesh", str(mesh_path),
                         "--f", "2*pi^2*sin(pi*x)*sin(pi*y)", "--f_O", "1",
                         "--exact-s", repr(4 / np.pi ** 2), "--p", "2",
                         "--strategy", "uniform", "--max-iter", "1",
                         "--target", "1", "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code == EXIT_OK:
            summary = json.loads((out / "summary.json").read_text())
            assert summary["containment_pass"] is True and err == ""
        else:
            assert "reconstruction certificate violated" in err
            assert not (out / "summary.json").exists()


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

    def test_no_quadrature_setting(self, tmp_path, capsys):
        # removed settings are unknown keys and flags.  The workspace fixes
        # the quadrature rule: a rule too weak for p used to exit 3 as a
        # solver failure ("Singular matrix" at --quad-degree 1, p=2).  The
        # gnuplot file convergence.dat only repeated the nel and half_gap
        # columns of convergence.csv.
        for key, val, flags in (("quad_degree", 1, ["--quad-degree", "2"]),
                                ("gnuplot", True, ["--gnuplot"])):
            cfg_path = tmp_path / f"{key}.json"
            cfg_path.write_text(json.dumps({"problem": "example1_s1",
                                            key: val}))
            out = tmp_path / key
            assert cli.main(["--config", str(cfg_path), "--out", str(out)]) \
                == EXIT_CONFIG
            assert capsys.readouterr().err == \
                f"configuration error: unknown keys ['{key}']\n"
            assert not out.exists()
            with pytest.raises(SystemExit) as exc:
                cli.main(["--problem", "example1_s1", *flags])
            assert exc.value.code == 2
            capsys.readouterr()

    @pytest.mark.parametrize("config, message", [
        ({"p": 1.5}, "p must be an integer, not 1.5"),
        ({"p": "2"}, "p must be an integer, not '2'"),
        ({"p": True}, "p must be an integer, not True"),
        ({"max_iter": 2.5}, "max_iter must be an integer, not 2.5"),
        ({"target": "1e-3"}, "target must be a number, not '1e-3'"),
        ({"tau": "nan"}, "tau must be a number, not 'nan'"),
        ({"tau": False}, "tau must be a number, not False"),
        ({"exact_s": "0.2"}, "exact_s must be a number, not '0.2'"),
        # NaN used to run and exit 5 as a containment violation
        ({"exact_s": float("nan")}, "exact_s must be finite, not nan"),
        ({"optimize": "no"}, "optimize must be true or false, not 'no'"),
        ({"optimize": 0}, "optimize must be true or false, not 0"),
        ({"strategy": 5}, "strategy must be a string, not 5"),
        ({"expressions": {"f": 5}}, "expression f must be a string, not 5"),
        ({"expressions": [["f", "1"]]},
         "expressions must be an object, not [['f', '1']]"),
        ({"nu": {"0": "2"}}, "nu of region 0 must be a number, not '2'"),
        ({"p": -1}, "polynomial degree p must be >= 0"),
        ({"tau": 0}, "tau must be positive"),
        ({"tau": -1.0}, "tau must be positive"),
        # inf used to end in a numpy warning and exit 3 as a solver failure
        ({"tau": math.inf}, "tau must be finite, not inf"),
        ({"target": 0}, "target gap must be positive"),
        ({"target": -1e-3}, "target gap must be positive"),
        ({"max_iter": 0}, "max-iter must be >= 1"),
        ({"problem": None},
         "either a builtin problem or an external mesh file must be given"),
        ([1, 2], "the config file must hold a JSON object, not [1, 2]"),
    ])
    def test_mistyped_config_value(self, tmp_path, capsys, config, message):
        # each used to end in a traceback (exit 1) or, for "optimize": "no",
        # to run with the optimization
        if isinstance(config, dict):
            config = {"problem": "example1_s1", "max_iter": 1, **config}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert cli.main(["--config", str(cfg_path), "--out", str(out)]) \
            == EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    def test_unknown_expression_key(self, tmp_path, capsys):
        # a typo ("g_n" for "g_N") used to run with g_N = 0
        mesh_path = tmp_path / "square.txt"
        write_mesh(unit_square_crisscross(0), mesh_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"mesh_file": str(mesh_path),
                                        "expressions": {"g_n": "1", "f": "1"}}))
        out = tmp_path / "o"
        assert cli.main(["--config", str(cfg_path), "--out", str(out)]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert err == ("configuration error: unknown expression 'g_n' "
                       "(expected f | g_D | g_N | f_O | g_D_O | g_N_O)")
        assert not out.exists()
