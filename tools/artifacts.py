#!/usr/bin/env python3
"""Run the hdgbounds CLI studies, compare the artifacts of two runs, print
a bitwise fingerprint of the library's intervals, and print the peak memory
of one interval stage by stage.

    python3 tools/artifacts.py run OUT
    python3 tools/artifacts.py diff A B
    PYTHONPATH=src python3 tools/artifacts.py fingerprint
    PYTHONPATH=src python3 tools/artifacts.py peak --level L --p P

``run`` runs every study of STUDIES with the CLI of this checkout, each in a fresh process writing to OUT/<study>, and checks its exit
status against the expected one; every study that exits 0 must leave a
non-empty convergence.csv, and the mixed Dirichlet/Neumann ones must keep
Neumann facets on their final mesh.  Exit status: 0 when every study met its
expectations, 1 when one did not, 2 on a usage error (OUT exists).

``diff`` compares two CLI output directories, or two ``run`` directories
study by study.  Every file of either directory is compared:

- ``convergence.csv`` cell by cell, ``summary.json`` value by value and
  ``report.txt`` token by token: each differing number is listed with its
  relative size and its distance in units of the last place (ulps) of the
  larger value; any other differing text is listed as such;
- ``mesh_final.txt`` as written and as a set of elements, each the set of
  its vertex triple's coordinates with its region, plus the boundary facets
  as coordinate pairs with their tags, so that a renumbered mesh is told
  apart from a change of geometry;
- any other file as text.

The table of differences ends with the largest relative move of each
quantity over all studies: of each column of ``convergence.csv`` and each
value of ``summary.json`` (s_minus, s_plus, kappa, half_gap, ...), with
where it is.

Round-off class: two numbers are equal up to round-off when they differ by
at most RTOL = 1e-8 times the larger magnitude or, for a number read from
text, by one unit in its last printed digit.  Integers (a count such as
``nel``) compare exactly.  A renumbered mesh is round-off; a changed
geometry, changed text, or a file or row present on one side only is not.

Exit status of ``diff``: 0 when the directories agree up to round-off, 1
when they do not, 2 on a usage error.

``fingerprint`` runs ``run_pipeline`` of the hdgbounds on the import path
(set PYTHONPATH to choose the library, say an older commit's src) on every
case of FINGERPRINT, each with the optimization off and then on, and prints
one line per run (wrapped here):

    <problem> <mesh> p=<p> optimize=<0|1> s_minus=<hex> s_plus=<hex>
    kappa=<hex> half_gap=<hex> s_h=<hex> gap_elements=<sha256>

with the floats as float.hex and gap_elements as the first 16 hex digits
of the sha256 of its float64 bytes.  Two libraries whose lines are
equal give the same intervals bit for bit on the grid; a run that raises
prints ``error=<exception class>`` after optimize=.
Exit status: 0 when every run finished, 1 when one raised, 2 on a usage
error.

``peak`` runs ``run_pipeline`` of the hdgbounds on the import path once,
on example1_s1 on the criss-cross square at level L (0 to 7; 4^(L+1)
elements) with degree P, in a fresh process, and prints the process's peak
resident set size (getrusage's ru_maxrss) once each stage has returned:

    level=<L> p=<P> mesh=<MiB> workspace=<MiB> solve=<MiB> pairs=<MiB>
    bounds=<MiB> (ru_maxrss, MiB)

The solve stage holds the skeleton factorization.  Exit status: 0 when the
run finished, 1 when it failed, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROUNDOFF, BEYOND = "round-off", "beyond"
RTOL = 1e-8
ROOT = Path(__file__).resolve().parent.parent

# The studies of ``run``: name, CLI arguments ({out} is OUT/<name>; the CLI
# runs in OUT) and expected exit status.  They are the runs of the CI, the
# 3e-6 bisection run of the L-shape, and two runs on a mixed
# Dirichlet/Neumann mesh read from a file.
_MIXED = ("--mesh mixed_square.txt --f 1 --g_N x+y --f_O 1 --g_N_O y "
          "--p 1 --strategy bulk:0.5 --target 1e-4 --max-iter 8 --out {out}")
STUDIES = (
    ("cli", "--problem example2_s1 --p 1 --strategy bulk:0.5 --refiner bisect "
     "--target 1e-4 --out {out}", 0),
    ("cli_p3", "--problem example2_s1 --p 3 --optimize --strategy bulk:0.5 "
     "--refiner bisect --target 1e-7 --out {out}", 0),
    ("cli_band", "--problem example1_s2 --p 2 --optimize --strategy bulk:0.5 "
     "--target 1e-7 --max-iter 12 --out {out}", 0),
    ("cli_uniform", "--problem example1_s1 --p 2 --strategy uniform "
     "--target 1e-9 --max-iter 5 --out {out}", 0),
    ("cli_s2", "--problem example2_s2 --p 2 --optimize --strategy tol:1e-3 "
     "--target 1e-3 --max-iter 20 --out {out}", 0),
    ("lshape_3e-6", "--problem example2_s1 --p 1 --strategy bulk:0.5 "
     "--refiner bisect --target 3e-6 --max-iter 80 --out {out}", 0),
    ("mixed_red", _MIXED + " --refiner red", 0),
    ("mixed_bisect", _MIXED + " --refiner bisect", 0),
    # an --out that cannot be made (OUT/not_a_dir is a file) is a
    # configuration error, before any solve
    ("not_a_dir", "--problem example2_s1 --p 1 --out {out}/sub", 2),
    # an exact value outside the certified interval is a containment violation
    ("cli_violation", "--problem example1_s1 --p 1 --strategy uniform "
     "--target 1e-3 --max-iter 3 --exact-s 0.5 --out {out}", 5),
    # a non-finite tau is a configuration error, before any solve
    ("cli_tau_inf", "--problem example1_s1 --p 1 --tau inf --out {out}", 2),
)
# The grid of ``fingerprint``: (problem, mesh, degree).  "crisscross-L-S" is
# the criss-cross square at level L, for seed S != 0 with its interior
# vertices moved in y as perfbench/run.py's crisscross moves them;
# "lshape-graded" is tests/conftest.py's bisected_lshape, the L-shape
# bisected 30 times at the re-entrant corner.
FINGERPRINT = tuple(
    [(problem, f"crisscross-{level}-{seed}", p)
     for problem in ("example1_s1", "example1_s2")
     for level, seed in ((1, 0), (3, 1), (2, 7)) for p in range(4)]
    + [(problem, "lshape-graded", p) for problem in ("example2_s1", "example2_s2")
       for p in range(5)])
# the CLI as its console script calls it, imported from this checkout
_CLI = "import sys; from hdgbounds.cli import main; sys.exit(main())"
# the levels ``peak`` takes: level 7, p=2 already peaks near 1.6 GB, and
# level 8 would need several GB (ROADMAP item 25)
PEAK_LEVELS = range(8)
# ``peak``'s run, in its own process: run_pipeline with every stage it calls
# wrapped to record ru_maxrss (KiB, bytes on macOS) once it returns
_PEAK = """
import resource, sys
from hdgbounds import adapt, bounds, hdg, reconstruct
from hdgbounds.mesh import unit_square_crisscross
from hdgbounds.problems import builtin

level, p = int(sys.argv[1]), int(sys.argv[2])
unit = 2.0 ** 20 / (1 if sys.platform == "darwin" else 1024)
line = [f"level={level} p={p}"]


def mark(stage):
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit
    line.append(f"{stage}={rss:.1f}")


def after(module, name, stage):
    fn = getattr(module, name)

    def marked(*args, **kwargs):
        result = fn(*args, **kwargs)
        mark(stage)
        return result
    setattr(module, name, marked)


for module, name, stage in ((adapt, "Workspace", "workspace"), (hdg, "solve", "solve"),
                            (reconstruct, "certified_pairs", "pairs"),
                            (bounds, "compute_bounds", "bounds")):
    after(module, name, stage)
prob = builtin("example1_s1")
mesh = unit_square_crisscross(level)
mark("mesh")
adapt.run_pipeline(mesh, prob.data, prob.out, p)
print(" ".join(line) + " (ru_maxrss, MiB)", flush=True)
"""

_NUMBER = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _number(text: str):
    """(value, unit of its last printed digit) of a numeric token, else
    None; an integer has unit None: it compares exactly."""
    m = _NUMBER.match(text.strip())
    if not m:
        return None
    mantissa, exponent = m.group(1), m.group(2)
    if "." not in mantissa and not exponent:
        return float(text), None
    decimals = len(mantissa.split(".")[1]) if "." in mantissa else 0
    return float(text), 10.0 ** (int((exponent or "e0")[1:]) - decimals)


class Diff:
    """The differences found, as table rows, whether any is beyond
    round-off, and the largest relative move of each named quantity, as
    quantity -> (relative move, ulps, where)."""

    def __init__(self):
        self.rows: list[tuple] = []
        self.moves: dict[str, tuple] = {}

    def number(self, where: str, a: float, b: float, unit: float | None = 0.0,
               quantity: str | None = None):
        """Numbers a and b: round-off within RTOL or one printed unit, any
        difference if unit is None (integers)."""
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        big = max(abs(a), abs(b))
        delta = abs(a - b)
        rel = delta / big if big else math.inf
        ulps = f"{delta / math.ulp(big):.3g}"
        # one printed unit, with slack for the binary value of each side
        ok = unit is not None and delta <= max(RTOL * big, unit * (1 + 1e-9))
        self.rows.append((where, repr(a), repr(b), ulps, f"{rel:.2g}",
                          ROUNDOFF if ok else BEYOND))
        if quantity is not None:
            self.move(quantity, (rel, ulps, where))

    def move(self, quantity: str, move: tuple):
        if move[0] > self.moves.get(quantity, (-1.0,))[0]:
            self.moves[quantity] = move

    def token(self, where: str, a: str, b: str, quantity: str | None = None):
        if a == b:
            return
        x, y = _number(a), _number(b)
        if x is None or y is None:
            self.other(where, a, b)
        else:
            unit = None if x[1] is None or y[1] is None else max(x[1], y[1])
            self.number(where, x[0], y[0], unit, quantity)

    def other(self, where: str, a, b, kind: str = BEYOND):
        self.rows.append((where, str(a), str(b), "", "", kind))

    @property
    def beyond(self) -> bool:
        return any(row[-1] == BEYOND for row in self.rows)


def _lines(path: Path) -> list[str]:
    return path.read_text().splitlines()


def _compare_rows(diff: Diff, name: str, a: list[list[str]], b: list[list[str]],
                  header: list[str] | None = None):
    for i in range(max(len(a), len(b))):
        if i >= len(a) or i >= len(b):
            diff.other(f"{name} row {i + 1}", "present" if i < len(a) else "missing",
                       "present" if i < len(b) else "missing")
            continue
        ra, rb = a[i], b[i]
        if len(ra) != len(rb):
            diff.other(f"{name} row {i + 1}", " ".join(ra), " ".join(rb))
            continue
        for j, (x, y) in enumerate(zip(ra, rb)):
            named = header is not None and j < len(header)
            col = header[j] if named else str(j + 1)
            diff.token(f"{name} row {i + 1} {col}", x, y, col if named else None)


def _compare_csv(diff: Diff, a: Path, b: Path):
    ra, rb = (list(csv.reader(_lines(p))) for p in (a, b))
    if ra[:1] != rb[:1]:
        diff.other(f"{a.name} header", ",".join(ra[0] if ra else []),
                   ",".join(rb[0] if rb else []))
        return
    _compare_rows(diff, a.name, ra[1:], rb[1:], ra[0] if ra else None)


def _compare_json(diff: Diff, a: Path, b: Path):
    def walk(where, x, y):
        if isinstance(x, dict) and isinstance(y, dict):
            for key in sorted(set(x) | set(y)):
                if key not in x or key not in y:
                    diff.other(f"{where}{key}", "present" if key in x else "missing",
                               "present" if key in y else "missing")
                else:
                    walk(f"{where}{key}.", x[key], y[key])
        elif (isinstance(x, (int, float)) and isinstance(y, (int, float))
              and not isinstance(x, bool) and not isinstance(y, bool)):
            exact = isinstance(x, int) and isinstance(y, int)
            where = where.rstrip(".")
            diff.number(where, float(x), float(y), None if exact else 0.0,
                        where.split(" ", 1)[1])
        elif x != y:
            diff.other(where.rstrip("."), json.dumps(x), json.dumps(y))

    walk(f"{a.name} ", json.loads(a.read_text()), json.loads(b.read_text()))


def _compare_text(diff: Diff, a: Path, b: Path):
    _compare_rows(diff, a.name, [line.split() for line in _lines(a)],
                  [line.split() for line in _lines(b)])


def _mesh_sets(path: Path):
    """The elements (vertex coordinates, region) and boundary facets
    (coordinates, tag) of a mesh file, as multisets."""
    toks = path.read_text().split()
    nv, ne, nf = map(int, toks[:3])
    xy = [(toks[3 + 2 * i], toks[4 + 2 * i]) for i in range(nv)]
    e0, f0 = 3 + 2 * nv, 3 + 2 * nv + 4 * ne
    elements = Counter(
        (tuple(sorted(xy[int(v)] for v in toks[e0 + 4 * i:e0 + 4 * i + 3])),
         toks[e0 + 4 * i + 3]) for i in range(ne))
    facets = Counter(
        (tuple(sorted(xy[int(v)] for v in toks[f0 + 3 * i:f0 + 3 * i + 2])),
         toks[f0 + 3 * i + 2]) for i in range(nf))
    return elements, facets


def _compare_mesh(diff: Diff, a: Path, b: Path):
    if a.read_bytes() == b.read_bytes():
        return
    (ea, fa), (eb, fb) = _mesh_sets(a), _mesh_sets(b)
    if ea == eb and fa == fb:
        diff.other(a.name, "as written", "renumbered, same elements", ROUNDOFF)
        return
    diff.other(f"{a.name} elements", f"{sum((ea - eb).values())} only here",
               f"{sum((eb - ea).values())} only here")
    if fa != fb:
        diff.other(f"{a.name} boundary facets", f"{sum((fa - fb).values())} only here",
                   f"{sum((fb - fa).values())} only here")


_COMPARE = {".csv": _compare_csv, ".json": _compare_json}


def diff_dirs(a: Path, b: Path) -> Diff:
    """All differences between the output directories a and b, and between
    their subdirectories of the same name."""
    diff = Diff()
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    for name in names:
        pa, pb = a / name, b / name
        if pa.is_dir() and pb.is_dir():
            sub = diff_dirs(pa, pb)
            diff.rows += [(f"{name}/{row[0]}",) + row[1:] for row in sub.rows]
            for quantity, (rel, ulps, where) in sub.moves.items():
                diff.move(quantity, (rel, ulps, f"{name}/{where}"))
        elif not (pa.is_file() and pb.is_file()):
            diff.other(name, "present" if pa.is_file() else "missing",
                       "present" if pb.is_file() else "missing")
        elif name == "mesh_final.txt":
            _compare_mesh(diff, pa, pb)
        else:
            _COMPARE.get(pa.suffix, _compare_text)(diff, pa, pb)
    return diff


def _study_problems(args: str, code: int, expected: int, out: Path) -> list[str]:
    """What a finished study failed of its expectations."""
    problems = [] if code == expected else [f"exit {code}, expected {expected}"]
    csv_file = out / "convergence.csv"
    if expected == 0 and not (csv_file.is_file() and csv_file.stat().st_size):
        problems.append("no convergence.csv")
    if _MIXED in args and not problems:
        from hdgbounds.mesh import read_mesh
        if not len(read_mesh(out / "mesh_final.txt").neumann_facets):
            problems.append("no Neumann facets left on the final mesh")
    return problems


def run_studies(root: Path) -> int:
    """Run the studies into root, which must not exist; returns the exit
    status of ``run``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from conftest import mixed_square
    from hdgbounds.mesh import write_mesh
    root.mkdir(parents=True)
    (root / "not_a_dir").touch()
    write_mesh(mixed_square(1), root / "mixed_square.txt")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    failed = 0
    for name, args, expected in STUDIES:
        out = root / name
        argv = [arg.format(out=out) for arg in shlex.split(args)]
        t0 = time.perf_counter()
        code = subprocess.run([sys.executable, "-c", _CLI, *argv], env=env,
                              cwd=root).returncode
        problems = _study_problems(args, code, expected, out)
        failed += bool(problems)
        print(f"{name:14s} exit {code} (expected {expected}) "
              f"{time.perf_counter() - t0:6.1f} s  "
              + ("; ".join(problems) if problems else "ok"), flush=True)
    return 1 if failed else 0


def _fingerprint_mesh(name: str):
    """The mesh of a FINGERPRINT case."""
    import numpy as np
    from conftest import bisected_lshape
    from hdgbounds.mesh import Mesh, unit_square_crisscross
    if name == "lshape-graded":
        return bisected_lshape()
    level, seed = map(int, name.split("-")[1:])
    base = unit_square_crisscross(level)
    v = base.vertices.copy()
    if seed:
        pitch = 0.5 ** (level + 1)
        interior = np.all((v > 0.0) & (v < 1.0), axis=1)
        v[interior, 1] += np.random.default_rng(seed).uniform(
            -0.2 * pitch, 0.2 * pitch, int(interior.sum()))
    return Mesh(v, base.elements, base.boundary_tag_dict())


def fingerprint() -> int:
    """Print the line of every run of the FINGERPRINT grid; returns the exit
    status of ``fingerprint``."""
    import numpy as np
    sys.path.append(str(ROOT / "tests"))  # after PYTHONPATH's hdgbounds
    from hdgbounds.adapt import run_pipeline
    from hdgbounds.problems import builtin
    failed = 0
    for problem, mesh, p in FINGERPRINT:
        prob = builtin(problem)
        for optimize in (False, True):
            case = f"{problem} {mesh} p={p} optimize={int(optimize)}"
            try:
                r = run_pipeline(_fingerprint_mesh(mesh), prob.data, prob.out,
                                 p, optimize=optimize)
            except Exception as exc:  # a finding of the library, not a crash
                failed = 1
                print(f"{case} error={type(exc).__name__}", flush=True)
                continue
            gaps = np.ascontiguousarray(r.gap_elements, dtype=np.float64)
            floats = " ".join(f"{name}={float(getattr(r, name)).hex()}" for name
                              in ("s_minus", "s_plus", "kappa", "half_gap", "s_h"))
            print(f"{case} {floats} gap_elements="
                  f"{hashlib.sha256(gaps.tobytes()).hexdigest()[:16]}", flush=True)
    return failed


def peak(level: int, p: int) -> int:
    """Run _PEAK in a fresh process on the hdgbounds that this process
    imports; returns the exit status of ``peak``."""
    lib = Path(importlib.util.find_spec("hdgbounds").origin).parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(lib)] + [path for path in [env.get("PYTHONPATH")] if path])
    code = subprocess.run([sys.executable, "-c", _PEAK, str(level), str(p)],
                          env=env).returncode
    return 1 if code else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run the CLI studies into OUT/<study>")
    r.add_argument("out", type=Path)
    d = sub.add_parser("diff", help="compare two CLI output directories")
    d.add_argument("a", type=Path)
    d.add_argument("b", type=Path)
    sub.add_parser("fingerprint", help="print the intervals of the library on "
                   "the import path, bit for bit")
    pk = sub.add_parser("peak", help="print the peak memory of one interval of "
                        "the library on the import path, stage by stage")
    pk.add_argument("--level", type=int, required=True,
                    help=f"criss-cross level, {PEAK_LEVELS[0]} to {PEAK_LEVELS[-1]}")
    pk.add_argument("--p", type=int, required=True, help="polynomial degree, >= 0")
    args = ap.parse_args(argv)
    if args.command == "fingerprint":
        return fingerprint()
    if args.command == "peak":
        if args.level not in PEAK_LEVELS or args.p < 0:
            pk.error(f"--level must lie in {PEAK_LEVELS[0]}..{PEAK_LEVELS[-1]} "
                     f"and --p be >= 0, not {args.level} and {args.p}")
        if importlib.util.find_spec("hdgbounds") is None:
            pk.error("hdgbounds is not on the import path (set PYTHONPATH)")
        return peak(args.level, args.p)
    if args.command == "run":
        if args.out.exists():
            ap.error(f"{args.out} exists")
        return run_studies(args.out)
    for path in (args.a, args.b):
        if not path.is_dir():
            ap.error(f"{path} is not a directory")
    diff = diff_dirs(args.a, args.b)
    print(f"# {args.a} -> {args.b}: {len(diff.rows)} difference(s), round-off class "
          f"rtol {RTOL:g} or one unit of the last printed digit; integers exact")
    if diff.rows:
        print("| where | A | B | ulps | relative | class |")
        print("|---|---|---|---|---|---|")
        for row in diff.rows:
            print("| " + " | ".join(row) + " |")
    if diff.moves:
        print("\n# largest relative move of each quantity")
        print("| quantity | relative | ulps | where |")
        print("|---|---|---|---|")
        for quantity, (rel, ulps, where) in sorted(diff.moves.items()):
            print(f"| {quantity} | {rel:.2g} | {ulps} | {where} |")
    return 1 if diff.beyond else 0


if __name__ == "__main__":
    sys.exit(main())
