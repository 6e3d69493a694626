"""File formats: market-data CSV, curve-set JSON, vol config, instruments.

Market-data files are line-oriented CSV where the first field of each line
names the record type.  Lines that are blank or start with '#' are skipped.

  grid,0,0.5,1.0,...                tenor nodes, once, ascending from 0
  base,USD                          base (measure) currency, once
  ois,USD,1.0,0.012                 par OIS quote: maturity, rate
  discount,USD,1.0,0.988            direct discount pillar (instead of ois)
  fixing,USD,0.5,0.0015             LIBOR-OIS spread, period starting at 0.5
  spot,USD,EUR,1.08                 price of one EUR in USD units
  fxforward,USD,EUR,USD,1.0,1.0812  pay, receive, collateral, maturity, fwd
  equity,USD,1.0,105.2              equity forward pillar

All times are year fractions and every quoted maturity must sit on the
declared grid.  A currency may be described by OIS quotes or by direct
discount pillars, not both.  FX forwards must be collateralized in one of
their own two currencies; a quote collateralized in the receive currency is
folded into the reciprocal pair before bootstrapping, which is exact
because common-collateral forwards of mirrored pairs are reciprocals.

Curve sets, volatility configs, and instrument lists are JSON documents;
ordered pair keys are written "PAY/COLLATERAL" (or "PAY/RECEIVE" for FX).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .curves import (
    CurveSet,
    DiscountCurve,
    EquityForwardCurve,
    SpreadCurve,
    SpreadFixings,
    bootstrap_discount_curve,
    bootstrap_spread_curve,
    ois_par_rate,
)
from .dynamics import VolatilitySpec
from .errors import ConfigurationError, InputError
from .pricers import FxForwardSpec, FxOptionSpec, fx_forward
from .tenor import TenorStructure

# Every path draws n_factors normals per step, so the count sizes the
# simulation's arrays; it is bounded before anything is allocated from it.
MAX_FACTORS = 64

_RECORD_FIELDS = {
    "grid": None,  # variable length
    "base": 1,
    "ois": 3,
    "discount": 3,
    "fixing": 3,
    "spot": 3,
    "fxforward": 5,
    "equity": 3,
}


@dataclass
class MarketDataFile:
    """Parsed market-data records, validated against the declared grid."""

    path: str
    ts: TenorStructure
    base: str
    ois: dict = field(default_factory=dict)        # ccy -> [(T, rate)]
    discounts: dict = field(default_factory=dict)  # ccy -> [(T, df)]
    fixings: dict = field(default_factory=dict)    # ccy -> [(T_start, value)]
    spots: dict = field(default_factory=dict)      # (pay, recv) -> rate
    fx_forwards: dict = field(default_factory=dict)  # (pay, recv, coll) -> [(T, f)]
    equities: dict = field(default_factory=dict)   # ccy -> [(T, fwd)]


def _parse_float(token: str, path: str, line: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise InputError(f"{what}: not a number: {token!r}", path, line)
    if not np.isfinite(value):
        raise InputError(f"{what}: not finite: {token!r}", path, line)
    return value


def parse_market_csv(path: str) -> MarketDataFile:
    """Read and validate one market-data file; raise InputError with context."""
    try:
        with open(path, newline="") as fh:
            raw_lines = fh.read().splitlines()
    except OSError as exc:
        raise InputError(f"cannot read market data: {exc}", path)
    except UnicodeDecodeError as exc:
        raise InputError(f"not text: {exc}", path,
                         exc.object[:exc.start].count(b"\n") + 1)

    records = []
    for lineno, raw in enumerate(raw_lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            row = next(csv.reader([raw]))
        except csv.Error as exc:
            raise InputError(f"bad CSV line: {exc}", path, lineno)
        fields = [f.strip() for f in row]
        kind = fields[0].lower()
        if kind not in _RECORD_FIELDS:
            raise InputError(f"unknown record type {fields[0]!r}", path, lineno)
        expected = _RECORD_FIELDS[kind]
        if expected is not None and len(fields) - 1 != expected:
            raise InputError(
                f"{kind} record needs {expected} fields, got {len(fields) - 1}",
                path, lineno,
            )
        records.append((lineno, kind, fields[1:]))

    grid_recs = [(n, f) for n, k, f in records if k == "grid"]
    if len(grid_recs) != 1:
        raise InputError(f"expected exactly one grid record, found {len(grid_recs)}",
                         path, grid_recs[1][0] if grid_recs else None)
    lineno, fields = grid_recs[0]
    nodes = [_parse_float(f, path, lineno, "grid node") for f in fields]
    try:
        ts = TenorStructure(np.array(nodes))
    except ValueError as exc:
        raise InputError(f"bad grid: {exc}", path, lineno)

    base_recs = [(n, f) for n, k, f in records if k == "base"]
    if len(base_recs) != 1:
        raise InputError(f"expected exactly one base record, found {len(base_recs)}",
                         path, base_recs[1][0] if base_recs else None)
    base = base_recs[0][1][0]

    def grid_time(token: str, lineno: int, what: str) -> float:
        t = _parse_float(token, path, lineno, what)
        if not ts.is_node(t):
            raise InputError(f"{what}: {t} is not a grid node", path, lineno)
        return t

    md = MarketDataFile(path=path, ts=ts, base=base)
    for lineno, kind, f in records:
        if kind in ("grid", "base"):
            continue
        if kind == "ois":
            ccy = f[0]
            if ccy in md.discounts:
                raise InputError(
                    f"{ccy}: has both ois quotes and discount pillars", path, lineno
                )
            T = grid_time(f[1], lineno, "ois maturity")
            if T <= 0.0:
                raise InputError("ois maturity must be positive", path, lineno)
            rate = _parse_float(f[2], path, lineno, "ois rate")
            md.ois.setdefault(ccy, []).append((T, rate))
        elif kind == "discount":
            ccy = f[0]
            if ccy in md.ois:
                raise InputError(
                    f"{ccy}: has both ois quotes and discount pillars", path, lineno
                )
            T = grid_time(f[1], lineno, "discount maturity")
            df = _parse_float(f[2], path, lineno, "discount factor")
            if df <= 0.0:
                raise InputError(f"discount factor must be positive, got {df}",
                                 path, lineno)
            md.discounts.setdefault(ccy, []).append((T, df))
        elif kind == "fixing":
            ccy = f[0]
            T = grid_time(f[1], lineno, "fixing period start")
            if ts.node_index(T) >= ts.n_buckets:
                raise InputError(
                    f"fixing period starting at {T} has no end node", path, lineno
                )
            value = _parse_float(f[2], path, lineno, "fixing value")
            md.fixings.setdefault(ccy, []).append((T, value))
        elif kind == "spot":
            pay, recv = f[0], f[1]
            if pay == recv:
                raise InputError("spot pair must use two currencies", path, lineno)
            if (pay, recv) in md.spots or (recv, pay) in md.spots:
                raise InputError(f"duplicate spot for {pay}/{recv}", path, lineno)
            rate = _parse_float(f[2], path, lineno, "spot rate")
            if rate <= 0.0:
                raise InputError(f"spot rate must be positive, got {rate}",
                                 path, lineno)
            md.spots[(pay, recv)] = rate
        elif kind == "fxforward":
            pay, recv, coll = f[0], f[1], f[2]
            if pay == recv:
                raise InputError("fxforward pair must use two currencies",
                                 path, lineno)
            if coll not in (pay, recv):
                raise InputError(
                    f"fxforward collateral {coll!r} must be {pay!r} or {recv!r}",
                    path, lineno,
                )
            T = grid_time(f[3], lineno, "fxforward maturity")
            if T <= 0.0:
                raise InputError("fxforward maturity must be positive", path, lineno)
            fwd = _parse_float(f[4], path, lineno, "forward rate")
            if fwd <= 0.0:
                raise InputError(f"forward rate must be positive, got {fwd}",
                                 path, lineno)
            md.fx_forwards.setdefault((pay, recv, coll), []).append((T, fwd))
        elif kind == "equity":
            ccy = f[0]
            T = grid_time(f[1], lineno, "equity pillar maturity")
            fwd = _parse_float(f[2], path, lineno, "equity forward")
            if fwd <= 0.0:
                raise InputError(f"equity forward must be positive, got {fwd}",
                                 path, lineno)
            md.equities.setdefault(ccy, []).append((T, fwd))

    known = set(md.ois) | set(md.discounts)
    if base not in known:
        raise InputError(f"base currency {base!r} has no curve records", path)
    for ccy in md.fixings:
        if ccy not in known:
            raise InputError(f"fixing for unknown currency {ccy!r}", path)
    for pair in md.spots:
        for ccy in pair:
            if ccy not in known:
                raise InputError(f"spot quote uses unknown currency {ccy!r}", path)
    for key in md.fx_forwards:
        for ccy in key[:2]:
            if ccy not in known:
                raise InputError(f"fxforward uses unknown currency {ccy!r}", path)
    for ccy in md.equities:
        if ccy not in known:
            raise InputError(f"equity pillars for unknown currency {ccy!r}", path)
    return md


def _pillar_curve(cls, ccy: str, pillars: list, path: str):
    """A DiscountCurve or EquityForwardCurve from (T, value) records."""
    pillars = sorted(pillars)
    try:
        return cls(ccy, np.array([t for t, _ in pillars]),
                   np.array([v for _, v in pillars]))
    except ValueError as exc:
        raise InputError(str(exc), path)


def build_curve_set(md: MarketDataFile) -> CurveSet:
    """Bootstrap every curve the file describes into one CurveSet."""
    discounts = {}
    for ccy, quotes in sorted(md.ois.items()):
        discounts[ccy] = bootstrap_discount_curve(ccy, sorted(quotes))
    for ccy, pillars in sorted(md.discounts.items()):
        discounts[ccy] = _pillar_curve(DiscountCurve, ccy, pillars, md.path)

    fixings = {}
    for ccy, recs in md.fixings.items():
        values = np.zeros(md.ts.n_buckets)
        for T, value in recs:
            values[md.ts.node_index(T)] = value
        fixings[ccy] = SpreadFixings(ccy, values)

    curves = CurveSet(discounts=discounts, fixings=fixings, spot_fx=dict(md.spots))

    for (pay, recv, coll), quotes in sorted(md.fx_forwards.items()):
        if coll == pay:
            dom, frn = pay, recv
            folded = sorted(quotes)
        else:
            # Same-collateral forwards of the mirrored pair are reciprocals.
            dom, frn = recv, pay
            folded = sorted((T, 1.0 / q) for T, q in quotes)
        pair = (frn, dom)
        if pair in curves.spreads:
            raise InputError(
                f"funding pair {pair} bootstrapped from more than one quote set",
                md.path,
            )
        try:
            spot = curves.fx_rate(dom, frn)
        except ConfigurationError:
            raise InputError(
                f"fxforward quotes for ({pay},{recv}) but no spot FX "
                f"quote links {dom} and {frn}",
                md.path,
            )
        curves.spreads[pair] = bootstrap_spread_curve(
            spot, folded, discounts[dom], discounts[frn]
        )

    for ccy, pillars in sorted(md.equities.items()):
        curves.equities[ccy] = _pillar_curve(EquityForwardCurve, ccy, pillars,
                                             md.path)
    return curves


def repricing_residuals(md: MarketDataFile, curves: CurveSet) -> list:
    """Relative round-trip errors, one (label, residual) per input quote."""
    out = []
    for ccy, quotes in sorted(md.ois.items()):
        curve = curves.discount_curve(ccy)
        for T, rate in sorted(quotes):
            resid = abs(ois_par_rate(curve, T) - rate) / max(1.0, abs(rate))
            out.append((f"ois {ccy} T={T:g}", resid))
    for ccy, pillars in sorted(md.discounts.items()):
        curve = curves.discount_curve(ccy)
        for T, df in sorted(pillars):
            out.append((f"discount {ccy} T={T:g}",
                        abs(curve.discount(T) - df) / df))
    for (pay, recv, coll), quotes in sorted(md.fx_forwards.items()):
        for T, quote in sorted(quotes):
            model = fx_forward(curves, FxForwardSpec(pay, recv, coll, T))
            out.append((f"fxforward {pay}/{recv}({coll}) T={T:g}",
                        abs(model / quote - 1.0)))
    return out


# -- curve-set JSON ----------------------------------------------------------

def _pair_key(pair: tuple) -> str:
    return f"{pair[0]}/{pair[1]}"


def _split_pair(key: str, path: str, what: str) -> tuple:
    parts = key.split("/")
    if len(parts) != 2 or not all(parts):
        raise InputError(f"{what}: pair key must look like 'AAA/BBB', got {key!r}",
                         path)
    return parts[0], parts[1]


def _section(doc: dict, name: str, path: str) -> dict:
    """The JSON object under `name`, or {} when the section is absent."""
    value = doc.get(name, {})
    if not isinstance(value, dict):
        raise InputError(f"section {name!r} must be a JSON object, "
                         f"got {type(value).__name__}", path)
    return value


def curve_set_document(ts: TenorStructure, base: str, curves: CurveSet) -> dict:
    """JSON-ready dict capturing the grid, base currency, and all pillars."""
    doc = {
        "grid": [float(t) for t in ts.nodes],
        "base": base,
        "discounts": {
            ccy: {"times": curve.times.tolist(), "values": curve.values.tolist()}
            for ccy, curve in curves.discounts.items()
        },
        "spreads": {
            _pair_key(pair): {"times": c.times.tolist(), "values": c.values.tolist()}
            for pair, c in curves.spreads.items()
        },
        "fixings": {ccy: f.values.tolist() for ccy, f in curves.fixings.items()},
        "spot_fx": {_pair_key(p): v for p, v in curves.spot_fx.items()},
        "equities": {
            ccy: {"times": c.times.tolist(), "values": c.values.tolist()}
            for ccy, c in curves.equities.items()
        },
    }
    return doc


def save_curve_set(path: str, ts: TenorStructure, base: str,
                   curves: CurveSet) -> None:
    try:
        with open(path, "w") as fh:
            json.dump(curve_set_document(ts, base, curves), fh, sort_keys=True,
                      indent=2)
            fh.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write: {exc}", path)


def _read_json(path: str):
    """Parsed JSON document of a file; unreadable or malformed -> InputError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read file: {exc}", path)
    except (ValueError, RecursionError) as exc:
        # bad syntax, undecodable bytes, too deep, or past the int-digit limit
        raise InputError(f"not valid JSON: {exc}", path)


def load_curve_set(path: str):
    """Read a curve-set file back; returns (ts, base, curves)."""
    doc = _read_json(path)
    try:
        ts = TenorStructure(np.array(doc["grid"], dtype=float))
        base = doc["base"]
        if not isinstance(base, str):
            raise InputError(f"base must be a currency code, got {base!r}", path)
        discounts = {
            ccy: DiscountCurve(ccy, np.array(rec["times"]), np.array(rec["values"]))
            for ccy, rec in _section(doc, "discounts", path).items()
        }
        spreads = {}
        for key, rec in _section(doc, "spreads", path).items():
            pay, coll = _split_pair(key, path, "spreads")
            spreads[(pay, coll)] = SpreadCurve(
                pay, coll, np.array(rec["times"]), np.array(rec["values"])
            )
        fixings = {
            ccy: SpreadFixings(ccy, np.array(values))
            for ccy, values in _section(doc, "fixings", path).items()
        }
        for ccy, fix in fixings.items():
            if fix.values.size != ts.n_buckets:
                raise InputError(f"fixings {ccy}: {fix.values.size} periods, "
                                 f"grid has {ts.n_buckets}", path)
        spot_fx = {
            _split_pair(key, path, "spot_fx"): float(v)
            for key, v in _section(doc, "spot_fx", path).items()
        }
        equities = {
            ccy: EquityForwardCurve(ccy, np.array(rec["times"]),
                                    np.array(rec["values"]))
            for ccy, rec in _section(doc, "equities", path).items()
        }
        curves = CurveSet(discounts=discounts, spreads=spreads, fixings=fixings,
                          spot_fx=spot_fx, equities=equities)
    except InputError:
        raise
    except KeyError as exc:
        raise InputError(f"missing field {exc.args[0]!r}", path)
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad curve data: {exc}", path)
    if base not in discounts:
        raise InputError(f"base currency {base!r} has no discount curve", path)
    return ts, base, curves


# -- volatility config -------------------------------------------------------

def build_volatility(doc: dict, n_buckets: int, path: str = "<config>") -> VolatilitySpec:
    """Assemble a VolatilitySpec from a JSON document.

    Loadings may be a scalar (single factor only), one vector of length
    n_factors applied to every bucket, or a full n_buckets x n_factors
    matrix.  Currency-keyed sections: collateral, libor_ois, equity; pair
    sections funding and fx use 'AAA/BBB' keys.
    """
    if not isinstance(doc, dict):
        raise InputError("volatility config must be a JSON object", path)
    try:
        n_factors = int(doc["n_factors"])
    except KeyError:
        raise InputError("missing field 'n_factors'", path)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"n_factors must be an integer, got {doc['n_factors']!r}",
                         path)
    if not 1 <= n_factors <= MAX_FACTORS:
        raise InputError(f"n_factors must be in [1, {MAX_FACTORS}], "
                         f"got {n_factors}", path)
    known = {"n_factors", "collateral", "libor_ois", "equity", "funding", "fx"}
    for key in doc:
        if key not in known:
            raise InputError(f"unknown volatility section {key!r}", path)
    by_ccy = {
        name: dict(_section(doc, name, path))
        for name in ("collateral", "libor_ois", "equity")
    }
    by_pair = {}
    for name in ("funding", "fx"):
        by_pair[name] = {
            _split_pair(key, path, name): value
            for key, value in _section(doc, name, path).items()
        }
    try:
        return VolatilitySpec(
            n_factors=n_factors,
            n_buckets=n_buckets,
            collateral=by_ccy["collateral"],
            libor_ois=by_ccy["libor_ois"],
            equity=by_ccy["equity"],
            funding=by_pair["funding"],
            fx=by_pair["fx"],
        )
    except (TypeError, ValueError) as exc:
        raise InputError(str(exc), path)


def load_vol_config(path: str, n_buckets: int) -> VolatilitySpec:
    return build_volatility(_read_json(path), n_buckets, path)


# -- instrument lists --------------------------------------------------------

_INSTRUMENT_FIELDS = {
    "zcb": ("currency", "collateral", "maturity"),
    "fx_forward": ("pay", "receive", "collateral", "maturity"),
    "fx_option": ("pay", "receive", "collateral", "maturity", "strike", "style"),
    "equity_forward": ("currency", "maturity"),
}


@dataclass(frozen=True)
class Instrument:
    """One priced line item: a label, a kind tag, and the typed spec."""

    label: str
    kind: str
    spec: object


def parse_instruments(path: str) -> list:
    doc = _read_json(path)
    if not isinstance(doc, list) or not doc:
        raise InputError("instrument file must be a non-empty JSON array", path)
    out = []
    seen = set()
    for i, rec in enumerate(doc):
        where = f"instrument {i}"
        if not isinstance(rec, dict):
            raise InputError(f"{where}: expected an object", path)
        kind = rec.get("type")
        if not isinstance(kind, str) or kind not in _INSTRUMENT_FIELDS:
            raise InputError(
                f"{where}: unknown type {kind!r}, expected one of "
                f"{sorted(_INSTRUMENT_FIELDS)}", path,
            )
        required = _INSTRUMENT_FIELDS[kind]
        for name in required:
            if name not in rec:
                raise InputError(f"{where}: missing field {name!r}", path)
        extra = set(rec) - set(required) - {"type", "label"}
        if extra:
            raise InputError(f"{where}: unexpected fields {sorted(extra)}", path)
        label = rec.get("label", f"{i:03d}_{kind}")
        if not isinstance(label, str):
            raise InputError(f"{where}: label must be a string, got {label!r}",
                             path)
        if label in seen:
            raise InputError(f"{where}: duplicate label {label!r}", path)
        seen.add(label)
        try:
            if kind == "zcb":
                spec = {"currency": str(rec["currency"]),
                        "collateral": str(rec["collateral"]),
                        "maturity": float(rec["maturity"])}
            elif kind == "fx_forward":
                spec = FxForwardSpec(str(rec["pay"]), str(rec["receive"]),
                                     str(rec["collateral"]),
                                     float(rec["maturity"]))
            elif kind == "fx_option":
                style = str(rec["style"]).lower()
                if style not in ("call", "put"):
                    raise ValueError(f"style must be call or put, got {style!r}")
                spec = FxOptionSpec(str(rec["pay"]), str(rec["receive"]),
                                    str(rec["collateral"]),
                                    float(rec["maturity"]),
                                    float(rec["strike"]),
                                    is_call=style == "call")
            else:
                spec = {"currency": str(rec["currency"]),
                        "maturity": float(rec["maturity"])}
        except (TypeError, ValueError) as exc:
            raise InputError(f"{where}: {exc}", path)
        out.append(Instrument(label=label, kind=kind, spec=spec))
    return out
