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
declared grid.  Maturities must be positive for ois and fxforward, and
values for discount, spot, fxforward and equity (see _QUOTES).  A file
quotes each spot pair once, and each maturity once per currency (ois,
discount, fixing, equity) or per pay, receive and collateral
(fxforward); a repeat is rejected at its line.  The spot pairs form a
tree: a spot whose two currencies the earlier spots already link closes a
cycle and is rejected (`curves.check_tree`), since each cross rate must
have one value.  A currency may be
described by OIS quotes or by direct discount pillars, not both.  FX
forwards must be collateralized in one of their own two currencies, and
a pair's forwards in one of them, not both.  A quote collateralized in the
receive currency is folded into the reciprocal pair before bootstrapping,
which is exact because common-collateral forwards of mirrored pairs are
reciprocals.

Curve sets, volatility configs, and instrument lists are JSON documents;
ordered pair keys are written "PAY/COLLATERAL" (or "PAY/RECEIVE" for FX),
and a JSON true or false is never read as a number.
A vol config's sections are VolatilitySpec.SECTIONS; an instrument list's
kinds, with each kind's fields and their types, are _INSTRUMENT_FIELDS.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import NamedTuple

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


class _Quote(NamedTuple):
    """A quote record kind: n_ccy currencies, a grid time unless `time` is
    None, then a value; `time` and `value` name them in messages."""

    table: str                  # the MarketDataFile table it fills
    n_ccy: int                  # currencies that key a quote
    time: str | None
    value: str
    positive_time: bool = False
    positive_value: bool = False
    unknown: str | None = None  # message for a currency with no curve


# In the order the unknown-currency checks run.
_QUOTES = {
    "ois": _Quote("ois", 1, "ois maturity", "ois rate", positive_time=True),
    "discount": _Quote("discounts", 1, "discount maturity", "discount factor",
                       positive_value=True),
    "fixing": _Quote("fixings", 1, "fixing period start", "fixing value",
                     unknown="fixing for unknown currency"),
    "spot": _Quote("spots", 2, None, "spot rate", positive_value=True,
                   unknown="spot quote uses unknown currency"),
    "fxforward": _Quote("fx_forwards", 3, "fxforward maturity", "forward rate",
                        positive_time=True, positive_value=True,
                        unknown="fxforward uses unknown currency"),
    "equity": _Quote("equities", 1, "equity pillar maturity", "equity forward",
                     positive_value=True,
                     unknown="equity pillars for unknown currency"),
}

_RECORD_FIELDS = {
    "grid": None,  # variable length
    "base": 1,
    **{kind: q.n_ccy + (q.time is not None) + 1 for kind, q in _QUOTES.items()},
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
    if not math.isfinite(value):
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

    md = MarketDataFile(path=path, ts=ts, base=base)
    first_line = {}
    for lineno, kind, f in records:
        quote = _QUOTES.get(kind)
        if quote is None:  # grid or base
            continue
        ccys = tuple(f[:quote.n_ccy])
        key = ccys if quote.n_ccy > 1 else ccys[0]
        if kind in ("ois", "discount") and ccys[0] in (
                md.discounts if kind == "ois" else md.ois):
            raise InputError(f"{ccys[0]}: has both ois quotes and discount pillars",
                             path, lineno)
        if quote.n_ccy > 1 and ccys[0] == ccys[1]:
            raise InputError(f"{kind} pair must use two currencies", path, lineno)
        if kind == "spot" and (ccys in md.spots or ccys[::-1] in md.spots):
            raise InputError(f"duplicate spot for {ccys[0]}/{ccys[1]}",
                             path, lineno)
        if kind == "fxforward" and ccys[2] not in ccys[:2]:
            raise InputError(f"fxforward collateral {ccys[2]!r} must be "
                             f"{ccys[0]!r} or {ccys[1]!r}", path, lineno)
        if quote.time is not None:
            T = _parse_float(f[quote.n_ccy], path, lineno, quote.time)
            if not ts.is_node(T):
                raise InputError(f"{quote.time}: {T} is not a grid node",
                                 path, lineno)
            if quote.positive_time and T <= 0.0:
                raise InputError(f"{quote.time} must be positive", path, lineno)
            if kind == "fixing" and ts.node_index(T) >= ts.n_buckets:
                raise InputError(f"fixing period starting at {T} has no end node",
                                 path, lineno)
        value = _parse_float(f[-1], path, lineno, quote.value)
        if quote.positive_value and value <= 0.0:
            raise InputError(f"{quote.value} must be positive, got {value}",
                             path, lineno)
        table = getattr(md, quote.table)
        if quote.time is None:
            table[key] = value
            continue
        # A (currencies..., maturity) key is quoted once.
        first = first_line.setdefault((kind, *ccys, T), lineno)
        if first != lineno:
            raise InputError(f"duplicate {kind} quote for {'/'.join(ccys)} "
                             f"at T={T:g} (first on line {first})", path, lineno)
        table.setdefault(key, []).append((T, value))

    known = set(md.ois) | set(md.discounts)
    if base not in known:
        raise InputError(f"base currency {base!r} has no curve records", path)
    for quote in _QUOTES.values():
        if quote.unknown is None:
            continue
        for key in getattr(md, quote.table):
            for ccy in key if quote.n_ccy > 1 else (key,):
                if ccy not in known:
                    raise InputError(f"{quote.unknown} {ccy!r}", path)
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

    try:
        spots = CurveSet(spot_fx=dict(md.spots))
    except ValueError as exc:   # spots that close a cycle
        raise InputError(str(exc), md.path)
    spreads = {}
    for (pay, recv, coll), quotes in sorted(md.fx_forwards.items()):
        if coll == pay:
            dom, frn = pay, recv
            folded = sorted(quotes)
        else:
            # Same-collateral forwards of the mirrored pair are reciprocals.
            dom, frn = recv, pay
            folded = sorted((T, 1.0 / q) for T, q in quotes)
        pair = (frn, dom)
        if pair in spreads or pair[::-1] in spreads:
            raise InputError(f"fxforward quotes for {frn}/{dom} come in more "
                             "than one orientation or collateral", md.path)
        try:
            spot = spots.fx_rate(dom, frn)
        except ConfigurationError:
            raise InputError(
                f"fxforward quotes for ({pay},{recv}) but no spot FX "
                f"quote links {dom} and {frn}",
                md.path,
            )
        spreads[pair] = bootstrap_spread_curve(
            spot, folded, discounts[dom], discounts[frn]
        )

    equities = {ccy: _pillar_curve(EquityForwardCurve, ccy, pillars, md.path)
                for ccy, pillars in sorted(md.equities.items())}
    return CurveSet(discounts=discounts, spreads=spreads, fixings=fixings,
                    spot_fx=spots.spot_fx, equities=equities)


def repricing_residuals(md: MarketDataFile, curves: CurveSet) -> list:
    """Relative round-trip errors, one (label, residual) per input quote."""
    out = []
    for ccy, quotes in sorted(md.ois.items()):
        curve, coupons = curves.discount_curve(ccy), []
        for T, rate in sorted(quotes):
            resid = (abs(ois_par_rate(curve, T, coupons) - rate)
                     / max(1.0, abs(rate)))
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


def _pillars(curve) -> dict:
    return {"times": curve.times.tolist(), "values": curve.values.tolist()}


def _read_pillars(cls, rec: dict, *names):
    """A pillar curve from its {"times": ..., "values": ...} record."""
    return cls(*names, np.array(rec["times"]), np.array(rec["values"]))


def curve_set_document(ts: TenorStructure, base: str, curves: CurveSet) -> dict:
    """JSON-ready dict capturing the grid, base currency, and all pillars."""
    return {
        "grid": [float(t) for t in ts.nodes],
        "base": base,
        "discounts": {ccy: _pillars(c) for ccy, c in curves.discounts.items()},
        "spreads": {_pair_key(pair): _pillars(c)
                    for pair, c in curves.spreads.items()},
        "fixings": {ccy: f.values.tolist() for ccy, f in curves.fixings.items()},
        "spot_fx": {_pair_key(p): v for p, v in curves.spot_fx.items()},
        "equities": {ccy: _pillars(c) for ccy, c in curves.equities.items()},
    }


_CONTAINERS = (dict, list, tuple)
_REFUSE = json.JSONEncoder().default  # json's TypeError for other types


def json_text(doc) -> str:
    """`json.dumps(doc, sort_keys=True, indent=2)`, byte for byte.

    With `indent` set, CPython's json writes through its pure-Python
    encoder.  Here Python walks the containers that hold containers, and
    each innermost one goes whole to json's C encoder, built once per
    depth with that depth's indent in its item separator.  Scalars and
    keys are written by json's own code, so a value json refuses (a set,
    a numpy integer, a tuple key) raises json's TypeError.  Circular
    documents are not detected.  An interpreter without json's C
    encoder gets `json.dumps` itself.
    """
    if c_make_encoder is None:
        return json.dumps(doc, sort_keys=True, indent=2)
    encoders = []

    def encoder(level):
        while len(encoders) <= level:
            pad = "\n" + "  " * len(encoders)
            encoders.append(c_make_encoder(
                None, _REFUSE, encode_basestring_ascii, None, ": ", "," + pad,
                True, False, True))  # sort_keys, skipkeys, allow_nan
        return encoders[level]

    def text(value, level):
        if not (isinstance(value, _CONTAINERS) and value):
            return "".join(encoder(0)(value, 0))
        is_dict = isinstance(value, dict)
        inner = level + 1
        pad = "\n" + "  " * inner
        for item in value.values() if is_dict else value:
            if isinstance(item, _CONTAINERS):
                break
        else:  # innermost: the C encoder writes it whole
            # The C encoder returns its text in pieces (one per 100,000
            # chunks on CPython 3.11), so the whole list is joined.
            s = "".join(encoder(inner)(value, 0))
            return f"{s[0]}{pad}{s[1:-1]}\n{'  ' * level}{s[-1]}"
        if is_dict:
            parts = [f"{_key_text(k)}: {text(v, inner)}"
                     for k, v in sorted(value.items())]
        else:
            parts = [text(v, inner) for v in value]
        opening, closing = "{}" if is_dict else "[]"
        return (f"{opening}{pad}{(',' + pad).join(parts)}"
                f"\n{'  ' * level}{closing}")

    return text(doc, 0)


def _key_text(key) -> str:
    # json writes the other key types it accepts as strings of their JSON.
    if not isinstance(key, str):
        if key is not None and not isinstance(key, (int, float)):
            raise TypeError("keys must be str, int, float, bool or None, "
                            f"not {type(key).__name__}")
        key = json.dumps(key)
    return encode_basestring_ascii(key)


def write_text(path: str, text: str) -> None:
    """Write `text` to the file at `path`; an unwritable path -> InputError."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write: {exc}", path)


def save_curve_set(path: str, ts: TenorStructure, base: str,
                   curves: CurveSet) -> None:
    write_text(path, json_text(curve_set_document(ts, base, curves)) + "\n")


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


def _reject_non_numbers(doc: dict, path: str) -> None:
    """Refuse a leaf that is not a JSON number in a document of numbers.

    float(), int() and numpy would read true and false as 1 and 0, and
    parse a string such as "0.99".  A boolean is refused anywhere; a
    string or null inside a section, since a top-level one is a section
    or field of the wrong type, which its reader names.  The message
    names the field by its keys, as in discounts.USD.values.
    """
    stack = [((), doc)]
    while stack:
        keys, node = stack.pop()
        named = isinstance(node, dict)
        for key, v in node.items() if named else enumerate(node):
            where = (*keys, str(key)) if named else keys
            if isinstance(v, (dict, list)):
                stack.append((where, v))
            elif isinstance(v, bool) or (keys and not isinstance(v, (int, float))):
                raise InputError(f"{'.'.join(where)}: expected a number, "
                                 f"got {json.dumps(v)}", path)


def load_curve_set(path: str):
    """Read a curve-set file back; returns (ts, base, curves)."""
    doc = _read_json(path)
    if isinstance(doc, dict):
        for key in doc:  # the sections curve_set_document writes
            if key not in ("grid", "base", "discounts", "spreads", "fixings",
                           "spot_fx", "equities"):
                raise InputError(f"unknown curve-set section {key!r}", path)
        _reject_non_numbers({k: v for k, v in doc.items() if k != "base"}, path)
    try:
        ts = TenorStructure(np.array(doc["grid"], dtype=float))
        base = doc["base"]
        if not isinstance(base, str):
            raise InputError(f"base must be a currency code, got {base!r}", path)
        discounts = {
            ccy: _read_pillars(DiscountCurve, rec, ccy)
            for ccy, rec in _section(doc, "discounts", path).items()
        }
        spreads = {}
        for key, rec in _section(doc, "spreads", path).items():
            pair = _split_pair(key, path, "spreads")
            spreads[pair] = _read_pillars(SpreadCurve, rec, *pair)
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
            ccy: _read_pillars(EquityForwardCurve, rec, ccy)
            for ccy, rec in _section(doc, "equities", path).items()
        }
        curves = CurveSet(discounts=discounts, spreads=spreads, fixings=fixings,
                          spot_fx=spot_fx, equities=equities)
    except InputError:
        raise
    except KeyError as exc:
        raise InputError(f"missing field {exc.args[0]!r}", path)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"bad curve data: {exc}", path)
    if base not in discounts:
        raise InputError(f"base currency {base!r} has no discount curve", path)
    return ts, base, curves


# -- volatility config -------------------------------------------------------

def build_volatility(doc: dict, n_buckets: int, path: str = "<config>") -> VolatilitySpec:
    """Assemble a VolatilitySpec from a JSON document.

    Besides `n_factors`, the document holds the sections that
    VolatilitySpec.SECTIONS names, each a JSON object and each optional.
    Keys are currencies, or 'AAA/BBB' pairs in VolatilitySpec.PAIR_SECTIONS
    (funding, fx); the loadings' shapes are VolatilitySpec's.
    """
    if not isinstance(doc, dict):
        raise InputError("volatility config must be a JSON object", path)
    _reject_non_numbers(doc, path)
    try:
        n_factors = doc["n_factors"]
    except KeyError:
        raise InputError("missing field 'n_factors'", path)
    # int() would truncate 1.7 and parse "3"; 3.0 is a JSON integer too.
    if not (isinstance(n_factors, int)
            or isinstance(n_factors, float) and n_factors.is_integer()):
        raise InputError(f"n_factors must be an integer, got {n_factors!r}",
                         path)
    n_factors = int(n_factors)
    if not 1 <= n_factors <= MAX_FACTORS:
        raise InputError(f"n_factors must be in [1, {MAX_FACTORS}], "
                         f"got {n_factors}", path)
    for key in doc:
        if key != "n_factors" and key not in VolatilitySpec.SECTIONS:
            raise InputError(f"unknown volatility section {key!r}", path)
    sections = {}
    for name in VolatilitySpec.SECTIONS:
        section = _section(doc, name, path)
        if name in VolatilitySpec.PAIR_SECTIONS:
            section = {_split_pair(key, path, name): value
                       for key, value in section.items()}
        sections[name] = section
    try:
        return VolatilitySpec(n_factors=n_factors, n_buckets=n_buckets,
                              **sections)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(str(exc), path)


def load_vol_config(path: str, n_buckets: int) -> VolatilitySpec:
    return build_volatility(_read_json(path), n_buckets, path)


# -- instrument lists --------------------------------------------------------

def _style(value) -> str:
    style = str(value).lower()
    if style not in ("call", "put"):
        raise ValueError(f"must be call or put, got {style!r}")
    return style


def _number(value) -> float:
    # float() would read true as 1.0 and parse the string "1.0"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {json.dumps(value)}")
    x = float(value)
    if not math.isfinite(x):  # json reads 1e400, Infinity and NaN
        raise ValueError(f"expected a finite number, got {x}")
    return x


# Each kind's fields and the type each is read as; the price report lists
# them as read.  An option's style comes first, so that a bad style is
# reported before a bad number.
_INSTRUMENT_FIELDS = {
    "zcb": {"currency": str, "collateral": str, "maturity": _number},
    "fx_forward": {"pay": str, "receive": str, "collateral": str,
                   "maturity": _number},
    "fx_option": {"style": _style, "pay": str, "receive": str,
                  "collateral": str, "maturity": _number, "strike": _number},
    "equity_forward": {"currency": str, "maturity": _number},
}


@dataclass(frozen=True)
class Instrument:
    """One priced line item: a label, a kind tag, its fields and typed spec."""

    label: str
    kind: str
    fields: dict   # the kind's fields as read
    spec: object   # FxForwardSpec, FxOptionSpec, or `fields` for the others


def parse_instruments(path: str) -> list:
    """One Instrument per entry: a "type" from _INSTRUMENT_FIELDS, exactly
    that kind's fields, and an optional unique "label" ("<index>_<type>").
    """
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
        readers = _INSTRUMENT_FIELDS[kind]
        for name in readers:
            if name not in rec:
                raise InputError(f"{where}: missing field {name!r}", path)
        extra = set(rec) - set(readers) - {"type", "label"}
        if extra:
            raise InputError(f"{where}: unexpected fields {sorted(extra)}", path)
        label = rec.get("label", f"{i:03d}_{kind}")
        if not isinstance(label, str):
            raise InputError(f"{where}: label must be a string, got {label!r}",
                             path)
        if label in seen:
            raise InputError(f"{where}: duplicate label {label!r}", path)
        seen.add(label)
        fields = {}
        for name, read in readers.items():
            try:
                fields[name] = read(rec[name])
            except (TypeError, ValueError, OverflowError) as exc:
                raise InputError(f"{where}: {name}: {exc}", path)
        try:
            spec = fields
            if kind == "fx_forward":
                spec = FxForwardSpec(**fields)
            elif kind == "fx_option":
                spec = FxOptionSpec(fields["pay"], fields["receive"],
                                    fields["collateral"], fields["maturity"],
                                    fields["strike"], fields["style"] == "call")
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"{where}: {exc}", path)
        out.append(Instrument(label=label, kind=kind, fields=fields, spec=spec))
    return out
