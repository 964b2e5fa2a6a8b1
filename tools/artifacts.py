#!/usr/bin/env python3
"""Compare the artifacts of two hdgbounds CLI output directories.

    python3 tools/artifacts.py diff A B

Every file of either directory is compared:

- ``convergence.csv`` cell by cell, ``summary.json`` value by value and
  ``report.txt`` token by token: each differing number is listed with its
  relative size and its distance in units of the last place (ulps) of the
  larger value; any other differing text is listed as such;
- ``mesh_final.txt`` as written and as a set of elements, each the set of
  its vertex triple's coordinates with its region, plus the boundary facets
  as coordinate pairs with their tags, so that a renumbered mesh is told
  apart from a change of geometry;
- any other file as text.

Round-off class: two numbers are equal up to round-off when they differ by
at most RTOL = 1e-8 times the larger magnitude or, for a number read from
text, by one unit in its last printed digit.  Integers (a count such as
``nel``) compare exactly.  A renumbered mesh is round-off; a changed
geometry, changed text, or a file or row present on one side only is not.

Exit status: 0 when the directories agree up to round-off, 1 when they do
not, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from collections import Counter
from pathlib import Path

ROUNDOFF, BEYOND = "round-off", "beyond"
RTOL = 1e-8

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
    """The differences found, as table rows, and whether any is beyond
    round-off."""

    def __init__(self):
        self.rows: list[tuple] = []

    def number(self, where: str, a: float, b: float, unit: float | None = 0.0):
        """Numbers a and b: round-off within RTOL or one printed unit, any
        difference if unit is None (integers)."""
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        big = max(abs(a), abs(b))
        delta = abs(a - b)
        rel = delta / big if big else math.inf
        # one printed unit, with slack for the binary value of each side
        ok = unit is not None and delta <= max(RTOL * big, unit * (1 + 1e-9))
        self.rows.append((where, repr(a), repr(b), f"{delta / math.ulp(big):.3g}",
                          f"{rel:.2g}", ROUNDOFF if ok else BEYOND))

    def token(self, where: str, a: str, b: str):
        if a == b:
            return
        x, y = _number(a), _number(b)
        if x is None or y is None:
            self.other(where, a, b)
        else:
            unit = None if x[1] is None or y[1] is None else max(x[1], y[1])
            self.number(where, x[0], y[0], unit)

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
            col = header[j] if header and j < len(header) else str(j + 1)
            diff.token(f"{name} row {i + 1} {col}", x, y)


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
            diff.number(where.rstrip("."), float(x), float(y), None if exact else 0.0)
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
    """All differences between the output directories a and b."""
    diff = Diff()
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    for name in names:
        pa, pb = a / name, b / name
        if not (pa.is_file() and pb.is_file()):
            diff.other(name, "present" if pa.is_file() else "missing",
                       "present" if pb.is_file() else "missing")
        elif name == "mesh_final.txt":
            _compare_mesh(diff, pa, pb)
        else:
            _COMPARE.get(pa.suffix, _compare_text)(diff, pa, pb)
    return diff


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    d = sub.add_parser("diff", help="compare two CLI output directories")
    d.add_argument("a", type=Path)
    d.add_argument("b", type=Path)
    args = ap.parse_args(argv)
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
    return 1 if diff.beyond else 0


if __name__ == "__main__":
    sys.exit(main())
