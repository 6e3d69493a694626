"""Compare two colmm reports row by row: how far did the numbers move?

    python3 tools/report_diff.py A.json B.json

A and B are two `price` or two `diagnose` reports (the JSON that `--out`
writes).  A diagnose row is named "asset tag T=horizon" and has a mean,
an SE and a z; a price row is an instrument label, with `mc_mean` and
`mc_std_error`, and, when the report also holds its Black `price`, the z
of MC against it.  Prints the largest |dz|, the largest relative change
of the mean and of the SE, each with its row, then every row whose
pass/fail changed (|z| against the report's own `z_limit`, else colmm's
`cli.Z_LIMIT`) and every row found in one report only.  Exits 0 when no row
changed pass/fail and both reports hold the same rows, 1 otherwise, and
2 when a file is not a report.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

# colmm from PYTHONPATH, else from this checkout.
sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))
from colmm.cli import Z_LIMIT  # noqa: E402


def _rows(doc: dict) -> dict:
    """Row name -> (mean, se, z or None) of a diagnose or price report."""
    if "rows" in doc:
        return {f"{r['asset']} {r['tag']} T={r['horizon']:g}":
                (r["mean"], r["std_error"], r["z"]) for r in doc["rows"]}
    if "results" in doc:
        rows = {}
        for label, r in doc["results"].items():
            if "mc_mean" not in r:
                continue
            mean, se = r["mc_mean"], r["mc_std_error"]
            z = None
            if "price" in r and se > 0.0:
                z = (mean - r["price"]) / se
            rows[label] = (mean, se, z)
        return rows
    raise ValueError("neither a diagnose report (rows) nor a price report "
                     "(results)")


def _rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(b - a) / abs(a) if a != 0.0 else math.inf


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    try:
        docs = []
        for path in (args.a, args.b):
            with open(path) as fh:
                docs.append(json.load(fh))
        rows_a, rows_b = (_rows(d) for d in docs)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"report_diff: {exc}", file=sys.stderr)
        return 2
    limits = [d.get("z_limit", Z_LIMIT) for d in docs]

    worst = {"|dz|": (0.0, None), "mean": (0.0, None), "se": (0.0, None)}
    flipped = []
    for name in rows_a.keys() & rows_b.keys():
        (ma, sa, za), (mb, sb, zb) = rows_a[name], rows_b[name]
        moves = {"mean": _rel(ma, mb), "se": _rel(sa, sb)}
        if za is not None and zb is not None:
            moves["|dz|"] = 0.0 if za == zb else abs(zb - za)
            if (abs(za) <= limits[0]) != (abs(zb) <= limits[1]):
                flipped.append(f"{name}: z {za!r} -> {zb!r}")
        for key, value in moves.items():
            if not value <= worst[key][0]:
                worst[key] = (value, name)
    print(f"rows compared: {len(rows_a.keys() & rows_b.keys())}")
    for key, label in (("|dz|", "max |dz|"), ("mean", "max rel mean change"),
                       ("se", "max rel SE change")):
        value, name = worst[key]
        print(f"{label}: {value:.3g}" + (f" ({name})" if name else ""))
    for line in sorted(flipped):
        print(f"pass/fail changed: {line}")
    only = [(args.a, rows_a.keys() - rows_b.keys()),
            (args.b, rows_b.keys() - rows_a.keys())]
    for path, names in only:
        for name in sorted(names):
            print(f"only in {path}: {name}")
    return 1 if flipped or any(names for _, names in only) else 0


if __name__ == "__main__":
    sys.exit(main())
