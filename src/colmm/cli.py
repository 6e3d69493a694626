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
a path count whose arrays cannot be allocated), 3 calibration failure,
4 diagnostic failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from .engine import GridPayoff, Model, SimulationConfig, simulate_many
from .errors import CalibrationError, ConfigurationError, InputError
from .market_data import (
    build_curve_set,
    load_curve_set,
    load_vol_config,
    parse_instruments,
    parse_market_csv,
    repricing_residuals,
    save_curve_set,
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


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write: {exc}", path)


def _write_report(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        _write_text(out_path, text)


def _write_csv(path: str, header: list, rows: list) -> None:
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _sim_config(args) -> SimulationConfig:
    try:
        return SimulationConfig(n_paths=args.paths, seed=args.seed)
    except ValueError as exc:
        raise InputError(str(exc), "<flags>")


def cmd_bootstrap(args) -> int:
    md = parse_market_csv(args.market)
    curves = build_curve_set(md)
    residuals = repricing_residuals(md, curves)
    save_curve_set(args.out, md.ts, md.base, curves)
    for label, resid in residuals:
        print(f"{label}: residual {resid:.3e}")
    worst_label, worst = max(residuals, key=lambda lr: lr[1],
                             default=(None, 0.0))
    print(f"max |residual| = {worst:.3e}")
    if worst_label is not None:
        print(f"worst quote: {worst_label}")
    print(f"wrote curve set to {args.out}")
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


def _check_node(ts, maturity: float, where: str) -> None:
    try:
        ts.node_index(maturity)
    except ValueError:
        raise InputError(f"{where}: maturity {maturity} is not a grid node",
                         "<instruments>")


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
        entry = {"kind": inst.kind}
        if inst.kind == "zcb":
            s = inst.spec
            _check_node(ts, s["maturity"], inst.label)
            entry.update(currency=s["currency"], collateral=s["collateral"],
                         maturity=s["maturity"],
                         price=collateralized_zcb(curves, s["currency"],
                                                  s["collateral"], s["maturity"]))
        elif inst.kind == "fx_forward":
            s = inst.spec
            _check_node(ts, s.maturity, inst.label)
            entry.update(pay=s.pay, receive=s.receive, collateral=s.collateral,
                         maturity=s.maturity, price=fx_forward(curves, s))
        elif inst.kind == "fx_option":
            s = inst.spec
            _check_node(ts, s.maturity, inst.label)
            entry.update(pay=s.pay, receive=s.receive, collateral=s.collateral,
                         maturity=s.maturity, strike=s.strike,
                         style="call" if s.is_call else "put",
                         method=args.method)
            if args.method in ("black", "both"):
                entry["price"] = fx_option_black(curves, vols, ts, s)
            if args.method in ("mc", "both"):
                mc_payoffs[inst.label] = fx_option_payoff(s)
        else:
            s = inst.spec
            _check_node(ts, s["maturity"], inst.label)
            entry.update(currency=s["currency"], maturity=s["maturity"],
                         price=equity_forward(curves, s["currency"],
                                              s["maturity"]))
        results[inst.label] = entry

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

    inputs = {
        "curve_set": _file_digest(args.curveset),
        "vols": _file_digest(args.vols),
        "instruments": _file_digest(args.instruments),
    }
    config = {"base": base, "paths": cfg.n_paths, "seed": cfg.seed,
              "method": args.method}
    doc = {"job_id": _job_id({"inputs": inputs, "config": config}),
           "inputs": inputs, "config": config, "results": results}
    _write_report(doc, args.out)
    if args.csv:
        rows = [(label, r["kind"], r.get("price", ""), r.get("mc_mean", ""),
                 r.get("mc_std_error", "")) for label, r in sorted(results.items())]
        _write_csv(args.csv, ["label", "kind", "price", "mc_mean", "mc_se"], rows)
    return 0


def _diagnose_rows(model: Model, cfg: SimulationConfig,
                   half_variance_sign: float) -> list:
    """Martingale table: every simulated deflated asset vs its curve target.

    Row families, one per horizon node T_n:
    - zcb: collateral account vs D of every currency (foreign ones priced
      through spot FX and the pair account),
    - spread_zcb: pair accounts of the base currency vs D * Y,
    - libor_ois: spread fixed at T_{n-1}, settled at T_n, vs B(0) * D,
    - equity: simulated forward at its maturity vs S(0) * D.
    """
    ts, curves, base = model.ts, model.curves, model.base
    payoffs = {}
    targets = {}
    rows_meta = []

    def add(name, payoff, target):
        payoffs[name] = payoff
        targets[name] = target

    for ccy in curves.currencies:
        disc = curves.discount_curve(ccy)
        for n in range(1, ts.n_buckets + 1):
            T = float(ts.nodes[n])
            name = f"zcb {ccy} T={T:g}"
            add(name, GridPayoff(lambda st: np.ones(st.n_paths), T, ccy, ccy),
                disc.discount(T))
            rows_meta.append((name, "zcb", ccy, T))

    for ccy in curves.currencies:
        if ccy == base:
            continue
        spread = curves.spread_curve(base, ccy, missing_ok=True)
        disc = curves.discount_curve(base)
        for n in range(1, ts.n_buckets + 1):
            T = float(ts.nodes[n])
            name = f"spread_zcb {base}/{ccy} T={T:g}"
            add(name, GridPayoff(lambda st: np.ones(st.n_paths), T, base, ccy),
                disc.discount(T) * spread.value(T))
            rows_meta.append((name, "spread_zcb", f"{base}/{ccy}", T))

    for ccy in curves.currencies:
        has_b = ccy in curves.fixings or ccy in model.vols.libor_ois
        if not has_b:
            continue
        disc = curves.discount_curve(ccy)
        fix = curves.fixings_for(ccy, ts.n_buckets)
        for n in range(1, ts.n_buckets + 1):
            T = float(ts.nodes[n])
            name = f"libor_ois {ccy} T={T:g}"
            add(name,
                GridPayoff(lambda st, c=ccy, k=n: st.libor_ois(c, k), T, ccy, ccy),
                fix.value(n - 1) * disc.discount(T))
            rows_meta.append((name, "libor_ois", ccy, T))

    for ccy, eq in sorted(curves.equities.items()):
        disc = curves.discount_curve(ccy)
        _, mask = eq.grid_values(ts)
        for n in range(1, ts.n_buckets + 1):
            if not mask[n - 1]:
                continue
            T = float(ts.nodes[n])
            name = f"equity {ccy} T={T:g}"
            add(name,
                GridPayoff(lambda st, c=ccy, t=T: st.equity_forward(c, t),
                           T, ccy, ccy),
                eq.value(T) * disc.discount(T))
            rows_meta.append((name, "equity", ccy, T))

    estimates = simulate_many(model, cfg, payoffs,
                              half_variance_sign=half_variance_sign)
    rows = []
    for name, family, tag, T in rows_meta:
        est = estimates[name]
        target = targets[name]
        z = est.z_score(target)
        rows.append({"asset": family, "tag": tag, "horizon": T,
                     "mean": est.mean, "target": target,
                     "std_error": est.std_error, "z": z})
    return rows


# A martingale row that overflows scores a non-finite z and fails the run;
# numpy's warnings about it would only add lines of noise.
@np.errstate(all="ignore")
def cmd_diagnose(args) -> int:
    ts, base, curves, vols = _load_model_inputs(args)
    cfg = _sim_config(args)
    model = Model(ts, curves, vols, base)
    sign = -1.0 if args.corrupt_drift_c else 1.0
    rows = _diagnose_rows(model, cfg, sign)

    worst = max((abs(r["z"]) for r in rows), default=0.0)
    passed = bool(worst <= Z_LIMIT)
    inputs = {"curve_set": _file_digest(args.curveset),
              "vols": _file_digest(args.vols)}
    config = {"base": base, "paths": cfg.n_paths, "seed": cfg.seed,
              "corrupt_drift_c": bool(args.corrupt_drift_c)}
    doc = {"job_id": _job_id({"inputs": inputs, "config": config}),
           "inputs": inputs, "config": config, "rows": rows,
           "max_abs_z": worst, "passed": passed, "z_limit": Z_LIMIT}
    _write_report(doc, args.out)
    if args.csv:
        _write_csv(args.csv,
                   ["asset", "tag", "horizon", "mean", "target", "se", "z"],
                   [(r["asset"], r["tag"], r["horizon"], repr(r["mean"]),
                     repr(r["target"]), repr(r["std_error"]), repr(r["z"]))
                    for r in rows])
    return 0 if passed else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colmm",
        description="Collateralized multi-currency market model tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_boot = sub.add_parser("bootstrap", help="calibrate curves from market CSV")
    p_boot.add_argument("market", help="market-data CSV file")
    p_boot.add_argument("--out", required=True, help="curve-set JSON to write")
    p_boot.add_argument("--csv", default=None, help="optional residual CSV")
    p_boot.set_defaults(func=cmd_bootstrap)

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
    p_price.set_defaults(func=cmd_price)

    p_diag = sub.add_parser("diagnose",
                            help="run the martingale test table")
    add_model_flags(p_diag)
    p_diag.add_argument("--corrupt-drift-c", action="store_true",
                        help="negative control: flip the convexity drift sign")
    p_diag.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
