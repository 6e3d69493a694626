"""Seeded workload inputs, the jobs that run them, and their output checks.

Each workload writes its market CSV, volatility JSON and instrument JSON
from the workload seed alone, so a seed names one input set on every
machine.  The program under test only ever sees those files, through
`colmm.cli.main`.  Sizes are chosen so that one run of a few tens of
seconds holds many jobs, keeping each workload's split of time between
modules as described in its `why`.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import re
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

BASE = "USD"
CURRENCIES = ("USD", "EUR", "GBP", "JPY", "CHF", "AUD")
# Rough USD price of one unit of each currency; the generator scatters
# spots around these so that cross rates stay plausible.
SPOT_LEVEL = {"EUR": 1.08, "GBP": 1.27, "JPY": 0.0067, "CHF": 1.12,
              "AUD": 0.66}
N_FACTORS = 3
Z_LIMIT = 4.0
MC_SE_LIMIT = 4.0
RESIDUAL_LIMIT = 1e-10

_MAX_RESIDUAL = re.compile(r"max \|residual\| = (\S+)")


# -- market generation --------------------------------------------------------

def _grid(step: float, n_buckets: int) -> list[float]:
    # Multiples of 0.25 and 0.5 are exact in binary, so the nodes written
    # to the CSV are exactly the nodes the instruments quote.
    return [k * step for k in range(n_buckets + 1)]


def _fmt(x: float) -> str:
    return repr(float(x))


@dataclass
class Market:
    """One generated market: grid, currencies and the quotes it implies."""

    grid: list[float]
    currencies: tuple[str, ...]
    fixing_ccys: tuple[str, ...]
    equity_ccy: str | None
    zero: dict[str, Callable[[float], float]] = field(default_factory=dict)
    spot: dict[str, float] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)

    def forward(self, pay: str, receive: str, T: float) -> float:
        """Approximate USD-collateralized forward: receive units in pay."""
        s = self.spot_rate(pay, receive)
        return s * math.exp((self.zero[pay](T) - self.zero[receive](T)) * T)

    def spot_rate(self, pay: str, receive: str) -> float:
        usd = {BASE: 1.0, **self.spot}
        return usd[receive] / usd[pay]


def generate_market(rng: np.random.Generator, currencies, step: float,
                    n_buckets: int, fixing_ccys=("USD", "EUR"),
                    equity_ccy: str | None = "USD") -> Market:
    """Smooth OIS curves, USD spots and FX forwards at every node, fixings
    for `fixing_ccys` at every period start, equity pillars at every node."""
    grid = _grid(step, n_buckets)
    mkt = Market(grid, tuple(currencies), tuple(fixing_ccys), equity_ccy)
    lines = ["grid," + ",".join(_fmt(t) for t in grid), f"base,{BASE}"]
    for ccy in currencies:
        level = rng.uniform(0.002, 0.04)
        slope = rng.uniform(-0.006, 0.012)
        tau = rng.uniform(1.0, 5.0)

        def par(T, level=level, slope=slope, tau=tau):
            return level + slope * (1.0 - math.exp(-T / tau))

        mkt.zero[ccy] = par
        lines += [f"ois,{ccy},{_fmt(T)},{par(T):.6f}" for T in grid[1:]]
    for ccy in currencies:
        if ccy == BASE:
            continue
        mkt.spot[ccy] = SPOT_LEVEL[ccy] * rng.uniform(0.9, 1.1)
        lines.append(f"spot,{BASE},{ccy},{mkt.spot[ccy]:.8g}")
        basis = rng.uniform(-0.003, 0.003)
        # Half the pairs are quoted under the foreign collateral, which the
        # parser folds into the mirrored pair.
        foreign_coll = bool(rng.integers(2))
        for T in grid[1:]:
            fwd = mkt.forward(BASE, ccy, T) * math.exp(basis * T)
            if foreign_coll:
                lines.append(f"fxforward,{ccy},{BASE},{ccy},{_fmt(T)},"
                             f"{1.0 / fwd:.10g}")
            else:
                lines.append(f"fxforward,{BASE},{ccy},{BASE},{_fmt(T)},"
                             f"{fwd:.10g}")
    for ccy in fixing_ccys:
        lines += [f"fixing,{ccy},{_fmt(T)},{rng.uniform(0.0005, 0.003):.6f}"
                  for T in grid[:-1]]
    if equity_ccy is not None:
        s0 = rng.uniform(50.0, 150.0)
        q = rng.uniform(0.0, 0.03)
        lines += [f"equity,{equity_ccy},{_fmt(T)},"
                  f"{s0 * math.exp((mkt.zero[equity_ccy](T) - q) * T):.8g}"
                  for T in grid[1:]]
    mkt.lines = lines
    return mkt


def generate_vols(rng: np.random.Generator, mkt: Market) -> dict:
    """Three-factor loadings, one vector per key broadcast to every bucket."""
    def vec(scale):
        return [round(float(v), 6) for v in rng.uniform(-scale, scale, N_FACTORS)]

    doc = {"n_factors": N_FACTORS,
           "collateral": {c: vec(0.008) for c in mkt.currencies},
           "libor_ois": {c: vec(0.12) for c in mkt.fixing_ccys},
           "funding": {}, "fx": {}}
    if mkt.equity_ccy is not None:
        doc["equity"] = {mkt.equity_ccy: vec(0.15)}
    for ccy in mkt.currencies:
        if ccy != BASE:
            doc["funding"][f"{ccy}/{BASE}"] = vec(0.002)
            doc["fx"][f"{BASE}/{ccy}"] = vec(0.07)
    return doc


def random_analytic_instruments(rng: np.random.Generator, mkt: Market,
                                per_kind: int) -> list[dict]:
    """`per_kind` each of zcb, fx_forward, Black fx_option, equity_forward.

    Collateral is USD, or either currency of a pair that contains USD: only
    those pairs have a bootstrapped funding-spread curve.
    """
    nodes = mkt.grid[1:]
    others = [c for c in mkt.currencies if c != BASE]
    out = []
    for i in range(per_kind):
        T = nodes[rng.integers(len(nodes))]
        ccy = mkt.currencies[rng.integers(len(mkt.currencies))]
        out.append({"type": "zcb", "currency": ccy, "maturity": T,
                    "collateral": ccy if rng.integers(2) else BASE})
    for kind in ("fx_forward", "fx_option"):
        for i in range(per_kind):
            T = nodes[rng.integers(len(nodes))]
            if rng.integers(2):
                pay, receive = BASE, others[rng.integers(len(others))]
                coll = (pay, receive)[rng.integers(2)]
            else:
                pay, receive = rng.choice(others, size=2, replace=False)
                pay, receive, coll = str(pay), str(receive), BASE
            rec = {"type": kind, "pay": pay, "receive": receive,
                   "collateral": coll, "maturity": T}
            if kind == "fx_option":
                rec["strike"] = round(mkt.forward(pay, receive, T)
                                      * rng.uniform(0.8, 1.2), 8)
                rec["style"] = ("call", "put")[rng.integers(2)]
            out.append(rec)
    for i in range(per_kind):
        out.append({"type": "equity_forward", "currency": mkt.equity_ccy,
                    "maturity": nodes[rng.integers(len(nodes))]})
    return out


def write_inputs(directory: Path, stem: str, mkt: Market, vols: dict,
                 instruments: list | None) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {"market": directory / f"{stem}.csv",
             "vols": directory / f"{stem}_vols.json",
             "curves": directory / f"{stem}_curves.json",
             "report": directory / f"{stem}_report.json"}
    paths["market"].write_text("\n".join(mkt.lines) + "\n")
    paths["vols"].write_text(json.dumps(vols, indent=1) + "\n")
    if instruments is not None:
        paths["instruments"] = directory / f"{stem}_instruments.json"
        paths["instruments"].write_text(json.dumps(instruments, indent=1) + "\n")
    return paths


# -- jobs -----------------------------------------------------------------------

@dataclass
class StepResult:
    code: int
    stdout: str


@dataclass
class Job:
    """One unit of timed work: CLI calls in order, then an output check.

    `key` groups jobs that must produce byte-identical outputs.
    """

    key: int
    steps: list[list[str]]
    outputs: list[Path]
    check: Callable[["Job", list[StepResult]], "Verdict"]


@dataclass
class Verdict:
    problems: list[str]
    mc_paths: int = 0
    rel_se: float | None = None


def run_steps(cli, job: Job) -> tuple[float, list[StepResult]]:
    """Run the job's CLI calls in this process; return wall seconds and codes."""
    results = []
    t0 = perf_counter()
    for argv in job.steps:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        results.append(StepResult(code, buf.getvalue()))
    return perf_counter() - t0, results


def digest(job: Job) -> str:
    h = hashlib.sha256()
    for path in job.outputs:
        h.update(path.read_bytes())
    return h.hexdigest()


def _read_report(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_bootstrap(step: StepResult) -> list[str]:
    if step.code != 0:
        return [f"bootstrap exit code {step.code}"]
    match = _MAX_RESIDUAL.search(step.stdout)
    if match is None:
        return ["bootstrap printed no max |residual|"]
    worst = float(match.group(1))
    if not worst <= RESIDUAL_LIMIT:
        return [f"bootstrap max |residual| {worst:.3e} > {RESIDUAL_LIMIT:g}"]
    return []


def _check_price_report(job: Job, results: list[StepResult],
                        n_instruments: int) -> tuple[list[str], dict]:
    if results[-1].code != 0:
        return [f"price exit code {results[-1].code}"], {}
    report = _read_report(job.outputs[-1])["results"]
    problems = []
    if len(report) != n_instruments:
        problems.append(f"{len(report)} results for {n_instruments} instruments")
    for label, r in report.items():
        if not math.isfinite(r.get("price", math.nan)):
            problems.append(f"{label}: price {r.get('price')!r} is not finite")
    return problems, report


def _fxopt_check(n_instruments: int):
    def check(job: Job, results: list[StepResult]) -> Verdict:
        problems, report = _check_price_report(job, results, n_instruments)
        paths, rel = 0, []
        for label, r in report.items():
            if r["kind"] != "fx_option":
                continue
            se, black, mean = r["mc_std_error"], r["price"], r["mc_mean"]
            if not (se > 0.0 and abs(mean - black) <= MC_SE_LIMIT * se):
                problems.append(f"{label}: MC {mean!r} +- {se!r} vs Black "
                                f"{black!r} beyond {MC_SE_LIMIT:g} SE")
            paths += r["mc_paths"]
            rel.append(se / abs(black))
        return Verdict(problems, paths, max(rel, default=None))
    return check


def _diagnose_check(n_rows: int):
    def check(job: Job, results: list[StepResult]) -> Verdict:
        code = results[0].code
        if code not in (0, 4):  # 4: the table was written and failed
            return Verdict([f"diagnose exit code {code}"])
        report = _read_report(job.outputs[0])
        problems = [f"diagnose exit code {code}"] if code else []
        if len(report["rows"]) != n_rows:
            problems.append(f"{len(report['rows'])} rows, expected {n_rows}")
        if not (report["passed"] and report["max_abs_z"] <= Z_LIMIT):
            problems.append(f"max |z| {report['max_abs_z']!r} > {Z_LIMIT:g}")
        rel = max(r["std_error"] / abs(r["target"]) for r in report["rows"])
        return Verdict(problems, report["config"]["paths"], rel)
    return check


def _bootstrap_price_check(n_instruments: int):
    def check(job: Job, results: list[StepResult]) -> Verdict:
        problems = check_bootstrap(results[0])
        more, _ = _check_price_report(job, results, n_instruments)
        return Verdict(problems + more)
    return check


# -- workloads ------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    workers: int
    reference: str   # the reference kernel whose work resembles the jobs'
    prepare: Callable[[Path, int], tuple[list[Job], list[Job]]]


def _rng(seed: int, tag: int, *more: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2 ** 64, tag, *more])


def _mc_seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(1, 2 ** 31)))


def _bootstrap_setup(p: dict[str, Path]) -> Job:
    return Job(-1, [["bootstrap", str(p["market"]), "--out", str(p["curves"])]],
               [p["curves"]], lambda job, res: Verdict(check_bootstrap(res[0])))


FXOPT_PATHS = 20_000


def prepare_fxopt(directory: Path, seed: int):
    rng = _rng(seed, 1)
    mkt = generate_market(rng, ("USD", "EUR"), 0.5, 8, fixing_ccys=("USD",))
    vols = generate_vols(rng, mkt)
    options = [("USD", 1.0, "call"), ("EUR", 2.0, "put"),
               ("EUR", 3.0, "call"), ("USD", 4.0, "put")]
    instruments = [
        {"type": "zcb", "currency": "EUR", "collateral": "USD",
         "maturity": 2.0},
        {"type": "fx_forward", "pay": "USD", "receive": "EUR",
         "collateral": "USD", "maturity": 3.0},
        {"type": "equity_forward", "currency": "USD",
         "maturity": float(rng.integers(1, 9)) * 0.5},
    ]
    for coll, T, style in options:
        instruments.append({
            "type": "fx_option", "pay": "USD", "receive": "EUR",
            "collateral": coll, "maturity": T, "style": style,
            "strike": round(mkt.forward("USD", "EUR", T)
                            * rng.uniform(0.95, 1.05), 6)})
    p = write_inputs(directory, "fxopt", mkt, vols, instruments)
    job = Job(0, [["price", str(p["curves"]), "--vols", str(p["vols"]),
                   "--instruments", str(p["instruments"]), "--method", "both",
                   "--paths", str(FXOPT_PATHS), "--seed", _mc_seed(rng),
                   "--out", str(p["report"])]],
              [p["report"]], _fxopt_check(len(instruments)))
    return [_bootstrap_setup(p)], [job]


DIAGNOSE_PATHS = 10_000
DIAGNOSE_SUBSTEPS = 4
DIAGNOSE_BUCKETS = 40


def prepare_diagnose(directory: Path, seed: int):
    rng = _rng(seed, 2)
    mkt = generate_market(rng, ("USD", "EUR", "GBP"), 0.25, DIAGNOSE_BUCKETS)
    vols = generate_vols(rng, mkt)
    p = write_inputs(directory, "diag", mkt, vols, None)
    # zcb rows per currency, spread rows per non-base currency, LIBOR-OIS
    # rows per fixing currency, equity rows for the one equity curve.
    n_rows = DIAGNOSE_BUCKETS * (3 + 2 + 2 + 1)
    job = Job(0, [["diagnose", str(p["curves"]), "--vols", str(p["vols"]),
                   "--paths", str(DIAGNOSE_PATHS),
                   "--substeps", str(DIAGNOSE_SUBSTEPS),
                   "--seed", _mc_seed(rng), "--out", str(p["report"])]],
              [p["report"]], _diagnose_check(n_rows))
    return [_bootstrap_setup(p)], [job]


BOOTSTRAP_MARKETS = 4
BOOTSTRAP_PER_KIND = 100


def prepare_bootstrap(directory: Path, seed: int):
    jobs = []
    for j in range(BOOTSTRAP_MARKETS):
        rng = _rng(seed, 3, j)
        mkt = generate_market(rng, CURRENCIES, 0.25, 40)
        vols = generate_vols(rng, mkt)
        instruments = random_analytic_instruments(rng, mkt, BOOTSTRAP_PER_KIND)
        p = write_inputs(directory, f"boot{j}", mkt, vols, instruments)
        jobs.append(Job(j, [
            ["bootstrap", str(p["market"]), "--out", str(p["curves"])],
            ["price", str(p["curves"]), "--vols", str(p["vols"]),
             "--instruments", str(p["instruments"]), "--method", "black",
             "--out", str(p["report"])],
        ], [p["curves"], p["report"]], _bootstrap_price_check(len(instruments))))
    return [], jobs


WORKLOADS = {w.name: w for w in (
    Workload(
        "fxopt-mc",
        "README scenario and default user path: price --method both on "
        "FX options, one simulation per option; normals and evolve_step "
        "dominate; plain single-thread baseline",
        1, "philox", prepare_fxopt),
    Workload(
        "diagnose-wide",
        "diagnose on a 3-currency 40-bucket grid with 4 substeps and 2 "
        "workers: evolve_step dominates, uses threads and the in-order "
        "merge, holds the largest state",
        2, "evolve", prepare_diagnose),
    Workload(
        "bootstrap-analytic",
        "bootstrap a fresh 6-currency 40-bucket market and Black-price 400 "
        "analytic instruments: never enters engine or dynamics, the bypass "
        "for every Monte Carlo optimisation",
        1, "python", prepare_bootstrap),
)}
