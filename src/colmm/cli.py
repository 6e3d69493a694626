"""Command-line front end: bootstrap curves, price instruments, run checks.

Subcommands
-----------
bootstrap   market CSV -> curve-set JSON, printing round-trip residuals
price       curve set + vol config + instrument list -> JSON price report
diagnose    martingale test table over every simulated deflated asset

Reports are deterministic functions of the input files and flags: the job
id is a digest of inputs, never a timestamp, and covers only what can change
a number, so the worker count is left out.  `--substeps` is still accepted
for old command lines but read by nothing: the engine draws one exact
increment per grid interval.  Exit codes: 0 ok, 2 input problem (including
a malformed flag and a path count whose arrays cannot be allocated),
3 calibration failure, 4 diagnostic failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import sys

import numpy as np

from .engine import (BucketRead, GridPayoff, Model, SimulationConfig,
                     simulate_many)
from .errors import CalibrationError, ConfigurationError, InputError
from .market_data import (
    build_curve_set,
    json_text,
    load_curve_set,
    load_vol_config,
    parse_instruments,
    parse_market_csv,
    repricing_residuals,
    save_curve_set,
    write_text,
)
from .pricers import (
    collateralized_zcb,
    equity_forward,
    fx_forward,
    fx_option_black,
    fx_option_payoff,
)

Z_LIMIT = 4.0


def _file_digest(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:
        raise InputError(f"cannot read: {exc}", path)


def _job_id(parts: dict) -> str:
    blob = json.dumps(parts, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_csv(path: str, header: list, rows) -> None:
    # str() first: csv would write a numpy float through its repr.
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([str(v) for v in row] for row in rows)
    write_text(path, buf.getvalue())


def _sim_config(args) -> SimulationConfig:
    try:
        return SimulationConfig(n_paths=args.paths, seed=args.seed)
    except ValueError as exc:
        raise InputError(str(exc), "<flags>")


def _write_job(args, base: str, cfg: SimulationConfig, body: dict,
               csv_header: list, csv_rows, **config) -> None:
    """Write a price or diagnose report (to stdout without --out) and CSV.

    The report holds `body` under a job id that digests the input files and
    the config, which is all that can change a number.
    """
    paths = {"curve_set": args.curveset, "vols": args.vols}
    if "instruments" in args:
        paths["instruments"] = args.instruments
    inputs = {name: _file_digest(path) for name, path in paths.items()}
    config = {"base": base, "paths": cfg.n_paths, "seed": cfg.seed, **config}
    doc = {"job_id": _job_id({"inputs": inputs, "config": config}),
           "inputs": inputs, "config": config, **body}
    text = json_text(doc) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        write_text(args.out, text)
    if args.csv:
        _write_csv(args.csv, csv_header, csv_rows)


def cmd_bootstrap(args) -> int:
    md = parse_market_csv(args.market)
    curves = build_curve_set(md)
    residuals = repricing_residuals(md, curves)
    save_curve_set(args.out, md.ts, md.base, curves)
    # One write: an unbuffered stdout would take one per print.
    lines = [f"{label}: residual {resid:.3e}" for label, resid in residuals]
    worst_label, worst = max(residuals, key=lambda lr: lr[1],
                             default=(None, 0.0))
    lines.append(f"max |residual| = {worst:.3e}")
    if worst_label is not None:
        lines.append(f"worst quote: {worst_label}")
    lines.append(f"wrote curve set to {args.out}")
    sys.stdout.write("\n".join(lines) + "\n")
    if args.csv:
        _write_csv(args.csv, ["quote", "residual"],
                   [(label, repr(resid)) for label, resid in residuals])
    return 0


def _load_model_inputs(args):
    ts, base, curves = load_curve_set(args.curveset)
    if args.base_ccy is not None:
        base = args.base_ccy
    vols = load_vol_config(args.vols, ts.n_buckets)
    return ts, base, curves, vols


# Overflow shows up as a non-finite result, which cmd_price rejects in one
# line; numpy's warnings about it would only add lines of noise.
@np.errstate(all="ignore")
def cmd_price(args) -> int:
    ts, base, curves, vols = _load_model_inputs(args)
    instruments = parse_instruments(args.instruments)
    cfg = _sim_config(args)
    model = Model(ts, curves, vols, base)

    results = {}
    mc_payoffs = {}
    for inst in instruments:
        f = inst.fields
        if not ts.is_node(f["maturity"]):
            raise InputError(f"{inst.label}: maturity {f['maturity']} is not "
                             f"a grid node", "<instruments>")
        entry = results[inst.label] = {"kind": inst.kind, **f}
        if inst.kind == "zcb":
            entry["price"] = collateralized_zcb(curves, f["currency"],
                                                f["collateral"], f["maturity"])
        elif inst.kind == "fx_forward":
            entry["price"] = fx_forward(curves, inst.spec)
        elif inst.kind == "fx_option":
            entry["method"] = args.method
            if args.method in ("black", "both"):
                entry["price"] = fx_option_black(curves, vols, ts, inst.spec)
            if args.method in ("mc", "both"):
                mc_payoffs[inst.label] = fx_option_payoff(inst.spec)
        else:
            entry["price"] = equity_forward(curves, f["currency"],
                                            f["maturity"])

    # One path set for every MC option: normals are keyed by (seed, path,
    # step), so each estimate equals its own single-option run.
    if mc_payoffs:
        for label, est in simulate_many(model, cfg, mc_payoffs).items():
            results[label].update(mc_mean=est.mean, mc_std_error=est.std_error,
                                  mc_paths=est.n_paths, seed=cfg.seed)

    # JSON has no NaN or infinity: a result that overflowed is an input
    # problem (loadings or curves out of any sensible range), not a report.
    for label, entry in results.items():
        for key in ("price", "mc_mean", "mc_std_error"):
            if key in entry and not math.isfinite(entry[key]):
                raise InputError(f"{label}: {key} is {entry[key]}, not finite")

    _write_job(args, base, cfg, {"results": results},
               ["label", "kind", "price", "mc_mean", "mc_se"],
               ((label, r["kind"], r.get("price", ""), r.get("mc_mean", ""),
                 r.get("mc_std_error", ""))
                for label, r in sorted(results.items())),
               method=args.method)
    return 0


def _diagnose_rows(model: Model, cfg: SimulationConfig) -> list:
    """Martingale table: every simulated deflated asset vs its curve target.

    Row families, one per horizon node T_n:
    - zcb: collateral account vs D of every currency (foreign ones priced
      through spot FX and the pair account),
    - spread_zcb: pair accounts of the base currency vs D * Y,
    - libor_ois: spread fixed at T_{n-1}, settled at T_n, vs B(0) * D,
    - equity: simulated forward at its maturity vs S(0) * D.
    """
    ts, curves, base = model.ts, model.curves, model.base
    horizons = [float(T) for T in ts.nodes[1:]]
    specs = {}  # row name -> (family, tag, T, payoff, target), in row order

    def add(family, tag, T, payoff, target):
        specs[f"{family} {tag} T={T:g}"] = (family, tag, T, payoff, target)

    # A unit of `pay` margined in `collateral` (fn None: the deflator
    # itself) vs D * Y; zcb rows have pay == collateral, so Y is the
    # identity curve and D * 1.0 == D.
    def unit_rows(family, tag, pay, collateral):
        disc = curves.discount_curve(pay)
        spread = curves.spread_curve(pay, collateral, missing_ok=True)
        for T in horizons:
            add(family, tag, T, GridPayoff(None, T, pay, collateral),
                disc.discount(T) * spread.value(T))

    for ccy in curves.currencies:
        unit_rows("zcb", ccy, ccy, ccy)
    for ccy in curves.currencies:
        if ccy != base:
            unit_rows("spread_zcb", f"{base}/{ccy}", base, ccy)

    for ccy in curves.currencies:
        if ccy not in curves.fixings and ccy not in model.vols.libor_ois:
            continue
        disc = curves.discount_curve(ccy)
        fix = curves.fixings_for(ccy, ts.n_buckets)
        for n, T in enumerate(horizons, start=1):
            add("libor_ois", ccy, T,
                GridPayoff(None, T, ccy, ccy, BucketRead("b", ccy, n - 1)),
                fix.value(n - 1) * disc.discount(T))

    for ccy, eq in sorted(curves.equities.items()):
        disc = curves.discount_curve(ccy)
        _, mask = eq.grid_values(ts)
        for n, (T, covered) in enumerate(zip(horizons, mask)):
            if covered:
                add("equity", ccy, T,
                    GridPayoff(None, T, ccy, ccy, BucketRead("s", ccy, n)),
                    eq.value(T) * disc.discount(T))

    payoffs = {name: payoff for name, (*_, payoff, _) in specs.items()}
    estimates = simulate_many(model, cfg, payoffs)
    rows = []
    for name, (family, tag, T, _, target) in specs.items():
        est = estimates[name]
        rows.append({"asset": family, "tag": tag, "horizon": T,
                     "mean": est.mean, "target": target,
                     "std_error": est.std_error, "z": est.z_score(target)})
    return rows


# A martingale row that overflows scores a non-finite z and fails the run;
# numpy's warnings about it would only add lines of noise.
@np.errstate(all="ignore")
def cmd_diagnose(args) -> int:
    ts, base, curves, vols = _load_model_inputs(args)
    cfg = _sim_config(args)
    model = Model(ts, curves, vols, base,
                  half_variance_sign=-1.0 if args.corrupt_drift_c else 1.0)
    rows = _diagnose_rows(model, cfg)

    worst = max((abs(r["z"]) for r in rows), default=0.0)
    passed = bool(worst <= Z_LIMIT)
    _write_job(args, base, cfg,
               {"rows": rows, "max_abs_z": worst, "passed": passed,
                "z_limit": Z_LIMIT},
               ["asset", "tag", "horizon", "mean", "target", "se", "z"],
               ((r["asset"], r["tag"], r["horizon"], repr(r["mean"]),
                 repr(r["target"]), repr(r["std_error"]), repr(r["z"]))
                for r in rows),
               corrupt_drift_c=bool(args.corrupt_drift_c))
    return 0 if passed else 4


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors, missing and unknown arguments too
    (which `exit_on_error=False` leaves out); subparsers share the class."""

    def error(self, message):
        raise InputError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call and shared by
    every later one, so callers must not change it."""
    parser = _Parser(
        prog="colmm",
        description="Collateralized multi-currency market model tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_boot = sub.add_parser("bootstrap", help="calibrate curves from market CSV")
    p_boot.add_argument("market", help="market-data CSV file")
    p_boot.add_argument("--out", required=True, help="curve-set JSON to write")
    p_boot.add_argument("--csv", default=None, help="optional residual CSV")

    def add_model_flags(p):
        p.add_argument("curveset", help="curve-set JSON from bootstrap")
        p.add_argument("--vols", required=True, help="volatility config JSON")
        p.add_argument("--paths", type=int, default=100_000)
        p.add_argument("--seed", type=int, default=42)
        # Accepted so that old command lines still run; changes no number.
        p.add_argument("--substeps", type=int, help=argparse.SUPPRESS)
        p.add_argument("--base-ccy", default=None,
                       help="measure currency (default: the curve set's base)")
        p.add_argument("--out", default=None,
                       help="report JSON path (default: stdout)")
        p.add_argument("--csv", default=None, help="optional CSV table")

    p_price = sub.add_parser("price", help="price an instrument list")
    add_model_flags(p_price)
    p_price.add_argument("--instruments", required=True,
                         help="instrument list JSON")
    p_price.add_argument("--method", choices=("black", "mc", "both"),
                         default="black", help="FX option pricing method")

    p_diag = sub.add_parser("diagnose",
                            help="run the martingale test table")
    add_model_flags(p_diag)
    p_diag.add_argument("--corrupt-drift-c", action="store_true",
                        help="negative control: flip the convexity drift sign")
    return parser


def main(argv=None) -> int:
    args = argparse.Namespace()
    try:
        args = build_parser().parse_args(argv)
        # Looked up per call, so a handler replaced after the first call runs.
        command = {"bootstrap": cmd_bootstrap, "price": cmd_price,
                   "diagnose": cmd_diagnose}[args.command]
        return command(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CalibrationError as exc:
        print(f"calibration error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        what = f"--paths {args.paths}" if "paths" in args else "these inputs"
        print(f"input error: out of memory: cannot allocate the arrays for "
              f"{what}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
