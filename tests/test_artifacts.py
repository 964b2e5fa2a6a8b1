"""tools/artifacts.py: diff on synthetic CLI output directories, run on one
study, the fingerprint grid and its lines, and the peak memory lines."""

import hashlib
import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import mixed_square
from hdgbounds.adapt import run_pipeline
from hdgbounds.mesh import Mesh, unit_square_crisscross, write_mesh
from hdgbounds.problems import builtin

_spec = importlib.util.spec_from_file_location(
    "artifacts", Path(__file__).resolve().parent.parent / "tools" / "artifacts.py")
artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifacts)

CSV = ("nel,s_minus,s_plus,err_s_tilde,strategy\n"
       "6,1.740651201443e-01,2.414829639193e-01,6.301762e-03,bulk:0.5\n"
       "10,1.906450641854e-01,2.323032208698e-01,2.601661e-03,bulk:0.5\n")
SUMMARY = {"final_nel": 10, "s_minus": 0.1906450641854, "converged": True}
REPORT = ("     nel            s_minus    |s-s_h|\n"
          "       6     0.174065120144   2.62e-03\n"
          "      10     0.190645064185   3.46e-03\n")


def _write(path: Path, csv=CSV, summary=SUMMARY, report=REPORT, mesh=None):
    path.mkdir()
    (path / "convergence.csv").write_text(csv)
    (path / "summary.json").write_text(json.dumps(summary, indent=2))
    (path / "report.txt").write_text(report)
    write_mesh(mixed_square(1) if mesh is None else mesh, path / "mesh_final.txt")
    return path


def _renumbered(mesh):
    """mesh with its vertices and elements in reverse order."""
    back = np.arange(mesh.n_vertices)[::-1]
    return Mesh(mesh.vertices[::-1], back[mesh.elements[::-1]],
                {(int(back[a]), int(back[b])): t
                 for (a, b), t in mesh.boundary_tag_dict().items()},
                region=mesh.region[::-1], nu=mesh.nu)


def _run(tmp_path, capsys, **b):
    code = artifacts.main(["diff", str(_write(tmp_path / "a")),
                           str(_write(tmp_path / "b", **b))])
    return code, capsys.readouterr().out


def test_identical_directories(tmp_path, capsys):
    code, out = _run(tmp_path, capsys)
    assert code == 0 and "0 difference(s)" in out


def test_one_ulp_is_round_off(tmp_path, capsys):
    up = dict(SUMMARY, s_minus=math.nextafter(SUMMARY["s_minus"], 1.0))
    code, out = _run(tmp_path, capsys, summary=up)
    assert code == 0
    # the table of differences, before the largest move of each quantity
    table = out.split("# largest relative move")[0]
    row = [line for line in table.splitlines() if "s_minus" in line]
    assert len(row) == 1 and "| 1 |" in row[0] and "round-off" in row[0]


def test_last_printed_digit_is_round_off(tmp_path, capsys):
    # a 13-digit CSV cell and a 3-digit report value, one unit apart
    code, out = _run(tmp_path, capsys,
                     csv=CSV.replace("2.323032208698e-01", "2.323032208699e-01"),
                     report=REPORT.replace("3.46e-03", "3.47e-03"))
    assert code == 0
    assert "convergence.csv row 2 s_plus" in out and "report.txt row 3 3" in out


def test_largest_move_of_each_quantity_over_all_studies(tmp_path, capsys):
    # two studies: s_minus moves by 1 ulp in one summary and by 3 in the
    # other's, s_plus by one unit of its 13th digit in one CSV row
    s = SUMMARY["s_minus"]
    for side, ulps in (("a", (0, 0)), ("b", (1, 3))):
        (tmp_path / side).mkdir()
        for study, n in zip(("x", "y"), ulps):
            up = s
            for _ in range(n):
                up = math.nextafter(up, 1.0)
            csv = CSV if side == "a" or study == "x" else CSV.replace(
                "2.323032208698e-01", "2.323032208699e-01")
            _write(tmp_path / side / study, csv=csv,
                   summary=dict(SUMMARY, s_minus=up))
    code = artifacts.main(["diff", str(tmp_path / "a"), str(tmp_path / "b")])
    out = capsys.readouterr().out
    assert code == 0
    table = out.split("# largest relative move of each quantity\n")[1].splitlines()
    assert table[:2] == ["| quantity | relative | ulps | where |", "|---|---|---|---|"]
    rows = {row.split(" | ")[0][2:]: row.split(" | ")[1:] for row in table[2:]}
    assert set(rows) == {"s_minus", "s_plus"}
    assert rows["s_minus"] == [f"{3 * math.ulp(s) / s:.2g}", "3",
                               "y/summary.json s_minus |"]
    assert rows["s_plus"][2] == "y/convergence.csv row 2 s_plus |"


def test_changed_row_is_beyond_round_off(tmp_path, capsys):
    code, out = _run(tmp_path, capsys,
                     csv=CSV.replace("10,1.906450641854e-01", "12,1.906450641854e-01"))
    assert code == 1 and "convergence.csv row 2 nel" in out and "beyond" in out


@pytest.mark.parametrize("big", [False, True])
def test_changed_count_is_beyond_round_off(tmp_path, capsys, big):
    # integers compare exactly, also where one count is within RTOL
    nel = 10**9 if big else 10
    a, b = ((tmp_path / side, nel + one) for side, one in (("a", 0), ("b", 1)))
    dirs = [_write(path, csv=CSV.replace("\n10,", f"\n{n},"),
                   summary=dict(SUMMARY, final_nel=n)) for path, n in (a, b)]
    code = artifacts.main(["diff"] + [str(d) for d in dirs])
    out = capsys.readouterr().out
    assert code == 1
    assert len([line for line in out.splitlines() if line.endswith("| beyond |")]) == 2
    assert "convergence.csv row 2 nel" in out and "summary.json final_nel" in out


def test_renumbered_mesh_is_round_off(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, mesh=_renumbered(mixed_square(1)))
    assert code == 0 and "renumbered, same elements" in out


def test_moved_vertex_is_a_change_of_geometry(tmp_path, capsys):
    mesh = mixed_square(1)
    v = mesh.vertices.copy()
    inner = int(np.flatnonzero(np.all((v > 0) & (v < 1), axis=1))[0])
    v[inner] += 1e-3
    moved = Mesh(v, mesh.elements, mesh.boundary_tag_dict(), region=mesh.region,
                 nu=mesh.nu)
    code, out = _run(tmp_path, capsys, mesh=moved)
    assert code == 1 and "mesh_final.txt elements" in out


def test_missing_file_is_beyond_round_off(tmp_path, capsys):
    a, b = _write(tmp_path / "a"), _write(tmp_path / "b")
    (b / "report.txt").unlink()
    assert artifacts.main(["diff", str(a), str(b)]) == 1
    assert "| report.txt | present | missing |" in capsys.readouterr().out


def test_not_a_directory_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        artifacts.main(["diff", str(tmp_path / "nowhere"), str(tmp_path)])
    assert exc.value.code == 2


def test_run_writes_directories_that_diff_reads(tmp_path, capsys, monkeypatch):
    # one short study twice: the same artifacts, and its expected exit 5
    # (containment violation) counts as met
    monkeypatch.setattr(artifacts, "STUDIES", [
        s for s in artifacts.STUDIES if s[0] == "cli_violation"])
    for side in ("a", "b"):
        assert artifacts.main(["run", str(tmp_path / side)]) == 0
    assert "cli_violation  exit 5 (expected 5)" in capsys.readouterr().out
    study = tmp_path / "a" / "cli_violation"
    assert {p.name for p in study.iterdir()} == {
        "convergence.csv", "mesh_final.txt", "report.txt", "summary.json"}
    assert artifacts.main(["diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert "0 difference(s)" in capsys.readouterr().out
    # a changed cell inside a study is found and named by its study
    csv = tmp_path / "b" / "cli_violation" / "convergence.csv"
    csv.write_text(csv.read_text().replace("uniform", "bulk:0.5"))
    assert artifacts.main(["diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert "cli_violation/convergence.csv row 1 strategy" in capsys.readouterr().out


def test_run_refuses_an_existing_directory(tmp_path):
    with pytest.raises(SystemExit) as exc:
        artifacts.main(["run", str(tmp_path)])
    assert exc.value.code == 2


FINGERPRINT_LINE = re.compile(
    r"(?P<problem>\S+) (?P<mesh>\S+) p=(?P<p>\d) optimize=(?P<optimize>[01]) "
    r"s_minus=(?P<s_minus>\S+) s_plus=(?P<s_plus>\S+) kappa=(?P<kappa>\S+) "
    r"half_gap=(?P<half_gap>\S+) s_h=(?P<s_h>\S+) "
    r"gap_elements=(?P<gap_elements>[0-9a-f]{16})$")


def test_fingerprint_grid():
    # example1_s1/_s2 on three criss-cross squares at p = 0..3 and
    # example2_s1/_s2 on the graded L-shape at p = 0..4, each run with the
    # optimization off and on: 68 lines
    squares = ("crisscross-1-0", "crisscross-3-1", "crisscross-2-7")
    grid = [(problem, mesh, p) for problem in ("example1_s1", "example1_s2")
            for mesh in squares for p in range(4)]
    grid += [(problem, "lshape-graded", p)
             for problem in ("example2_s1", "example2_s2") for p in range(5)]
    assert sorted(artifacts.FINGERPRINT) == sorted(grid)
    assert 2 * len(artifacts.FINGERPRINT) == 68
    # the meshes: the plain square at seed 0, perfbench's moved one else,
    # and the graded L-shape of 186 elements
    plain = unit_square_crisscross(1)
    assert np.array_equal(artifacts._fingerprint_mesh("crisscross-1-0").vertices,
                          plain.vertices)
    moved = artifacts._fingerprint_mesh("crisscross-2-7")
    base = unit_square_crisscross(2)
    assert np.array_equal(moved.vertices[:, 0], base.vertices[:, 0])
    assert 0 < np.abs(moved.vertices - base.vertices).max() <= 0.2 / 8
    assert artifacts._fingerprint_mesh("lshape-graded").n_elements == 186


def test_fingerprint_lines_hold_the_intervals_bit_for_bit(capsys, monkeypatch):
    cases = (("example1_s2", "crisscross-1-0", 0),
             ("example2_s1", "lshape-graded", 1))
    monkeypatch.setattr(artifacts, "FINGERPRINT", cases)
    assert artifacts.main(["fingerprint"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 * len(cases)
    for line, ((problem, mesh, p), optimize) in zip(
            lines, [(case, opt) for case in cases for opt in (False, True)],
            strict=True):
        m = FINGERPRINT_LINE.match(line)
        assert m, line
        assert (m["problem"], m["mesh"], int(m["p"]), m["optimize"]) == (
            problem, mesh, p, str(int(optimize)))
        prob = builtin(problem)
        res = run_pipeline(artifacts._fingerprint_mesh(mesh), prob.data,
                           prob.out, p, optimize=optimize)
        for name in ("s_minus", "s_plus", "kappa", "half_gap", "s_h"):
            assert float.fromhex(m[name]) == getattr(res, name)
            assert m[name] == float(getattr(res, name)).hex()
        assert m["gap_elements"] == hashlib.sha256(
            res.gap_elements.astype(np.float64).tobytes()).hexdigest()[:16]


def test_fingerprint_names_a_failed_run(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("certificate violated")
    monkeypatch.setattr(artifacts, "FINGERPRINT",
                        (("example1_s1", "crisscross-1-0", 1),))
    monkeypatch.setattr("hdgbounds.adapt.run_pipeline", fail)
    assert artifacts.main(["fingerprint"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"example1_s1 crisscross-1-0 p=1 optimize={opt} error=RuntimeError"
        for opt in (0, 1)]


def test_peak_prints_the_resident_set_after_each_stage(capfd):
    assert artifacts.main(["peak", "--level", "1", "--p", "1"]) == 0
    m = re.fullmatch(r"level=1 p=1 mesh=(\S+) workspace=(\S+) solve=(\S+) "
                     r"pairs=(\S+) bounds=(\S+) \(ru_maxrss, MiB\)",
                     capfd.readouterr().out.strip())
    assert m
    # a peak never falls
    values = [float(x) for x in m.groups()]
    assert 0 < values[0] and values == sorted(values)


@pytest.mark.parametrize("level,p", [(-1, 1), (8, 2), (1, -1)])
def test_peak_refuses_a_level_or_degree_out_of_range(level, p):
    with pytest.raises(SystemExit) as exc:
        artifacts.main(["peak", "--level", str(level), "--p", str(p)])
    assert exc.value.code == 2
