"""Spans around the calls into each colmm module, from outside the package.

The tracer replaces functions at the place where callers look them up:
`engine` and `cli` import names from `dynamics` and `pricers`, so patching
`colmm.dynamics.evolve_step` alone would miss every call.  Methods are
patched on their class, which every lookup goes through.  A hook whose
target no longer exists is reported as absent and the run goes on.

A span is (group, start, end, parent, thread id, thread CPU seconds, work).
Spans are kept in memory per job and turned into per-layer metrics after
the job, outside its timed region.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
from dataclasses import dataclass
from time import perf_counter, thread_time
from typing import Callable

import numpy as np

# -- meters: work counts taken from a hooked call's arguments and result ------


def _normals(args, kwargs, result):
    # _block_normals(seed, path_lo, path_hi, n_steps, n_factors)
    _, lo, hi, steps, factors = args[:5]
    return {"engine.normals": (hi - lo) * steps * factors}


def _paths(args, kwargs, result):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return {"engine.paths": cfg.n_paths}


def _bucket_updates(args, kwargs, result):
    # After the step, q_index(state.time) is the interval just evolved; its
    # live buckets are m >= k for c, y, B and the masked m >= k - 1 for S.
    state, ts = args[0], args[4] if len(args) > 4 else kwargs["ts"]
    k = ts.q_index(state.time)
    live = ts.n_buckets - k
    columns = live * (len(state.c) + len(state.y) + len(state.b))
    for mask in state.s_mask.values():
        columns += int(np.count_nonzero(mask[max(k - 1, 0):]))
    return {"dynamics.bucket_updates": state.n_paths * columns}


def _state_bytes(args, kwargs, result):
    total = 0
    for value in vars(result).values():
        arrays = value.values() if isinstance(value, dict) else [value]
        total += sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    return {"dynamics.state_bytes": total}


def _read(args, kwargs, result):
    out = {"market_data.bytes_read": os.path.getsize(args[0])}
    if isinstance(result, list):
        out["market_data.records"] = len(result)
    elif hasattr(result, "fx_forwards"):
        out["market_data.records"] = sum(
            len(getattr(result, name)) if name == "spots"
            else sum(len(v) for v in getattr(result, name).values())
            for name in ("ois", "discounts", "fixings", "spots",
                         "fx_forwards", "equities"))
    return out


def _written(args, kwargs, result):
    return {"market_data.bytes_written": os.path.getsize(args[0])}


@dataclass(frozen=True)
class Hook:
    where: str       # dotted module, or module.Class
    name: str
    group: str       # metric group; its prefix before '.' is the layer
    meter: Callable | None = None
    cpu: bool = False


def _hooks(where, names, group, meter=None, cpu=False):
    return [Hook(where, n, group, meter, cpu) for n in names]


HOOKS = [
    Hook("colmm.cli", "main", "cli.main"),
    *_hooks("colmm.cli", ["parse_market_csv"], "market_data.read", _read),
    *_hooks("colmm.cli", ["load_curve_set", "load_vol_config",
                          "parse_instruments"], "market_data.read", _read),
    *_hooks("colmm.cli", ["save_curve_set"], "market_data.write", _written),
    *_hooks("colmm.cli", ["build_curve_set", "repricing_residuals"],
            "market_data.build"),
    *_hooks("colmm.market_data", ["bootstrap_discount_curve",
                                  "bootstrap_spread_curve"], "curves.bootstrap"),
    *_hooks("colmm.market_data", ["ois_par_rate"], "curves.lookup"),
    *_hooks("colmm.curves.DiscountCurve", ["discount", "log_discount"],
            "curves.lookup"),
    *_hooks("colmm.curves.SpreadCurve", ["value", "log_value"], "curves.lookup"),
    *_hooks("colmm.curves.EquityForwardCurve", ["value"], "curves.lookup"),
    *_hooks("colmm.curves.SpreadFixings", ["value"], "curves.lookup"),
    *_hooks("colmm.curves.CurveSet", ["discount_curve", "spread_curve",
                                      "fx_rate"], "curves.lookup"),
    *_hooks("colmm.cli", ["collateralized_zcb", "fx_forward", "fx_option_black",
                          "equity_forward"], "pricers.analytic"),
    *_hooks("colmm.market_data", ["fx_forward"], "pricers.analytic"),
    *_hooks("colmm.cli", ["fx_option_mc"], "pricers.mc"),
    *_hooks("colmm.cli", ["simulate_many"], "engine.simulate", _paths),
    *_hooks("colmm.pricers", ["simulate"], "engine.simulate", _paths),
    *_hooks("colmm.engine", ["simulate_many"], "engine.simulate", _paths),
    *_hooks("colmm.engine", ["_simulate_block"], "engine.block", cpu=True),
    *_hooks("colmm.engine", ["_block_normals"], "engine.normals", _normals),
    *_hooks("colmm.engine", ["evolve_step"], "dynamics.evolve", _bucket_updates),
    *_hooks("colmm.dynamics", ["collateral_drift_vector", "funding_drift_vector",
                               "libor_ois_drift_vector", "equity_drift_vector"],
            "dynamics.drift"),
    *_hooks("colmm.dynamics.PathState", ["initial"], "dynamics.init",
            _state_bytes),
    *_hooks("colmm.dynamics.PathState", ["zcb", "spread_zcb", "account",
                                         "pair_account", "fx_rate", "libor_ois",
                                         "equity_forward"], "dynamics.settle"),
]


def _resolve(where: str):
    """Import the longest module prefix of `where`, then walk attributes."""
    parts = where.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


class Tracer:
    """Installs the hooks, records spans, and restores the originals."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list[list] = []
        self.meter_errors: set[str] = set()
        self.absent: list[str] = []
        self._local = threading.local()
        self._main_stack: list = []
        self._saved: list = []

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, fn, hook: Hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # A span opened on a pool thread belongs to whatever the
            # installing thread is waiting in.
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else None)
            span = [hook.group, 0.0, 0.0, parent, threading.get_ident(), 0.0,
                    None]
            tracer.spans.append(span)
            stack.append(span)
            c0 = thread_time() if hook.cpu else 0.0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                if hook.cpu:
                    span[5] = thread_time() - c0
                stack.pop()
            span[1] = t0
            if hook.meter is not None:
                try:
                    span[6] = hook.meter(args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError,
                        ValueError, OSError):
                    tracer.meter_errors.add(hook.group)
            return result

        return traced

    def install(self) -> None:
        self._local.stack = self._main_stack
        self.absent = []
        for hook in self.hooks:
            owner = _resolve(hook.where)
            label = f"{hook.where}.{hook.name}"
            if owner is None:
                self.absent.append(label)
                continue
            if inspect.isclass(owner):
                raw = owner.__dict__.get(hook.name)
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, hook))
                elif isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(raw.__func__, hook))
                elif inspect.isfunction(raw):
                    new = self._wrap(raw, hook)
                else:
                    self.absent.append(label)
                    continue
            else:
                raw = getattr(owner, hook.name, None)
                if not inspect.isfunction(raw):
                    self.absent.append(label)
                    continue
                new = self._wrap(raw, hook)
            self._saved.append((owner, hook.name, raw))
            setattr(owner, hook.name, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)

    def take_spans(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


def _covered(lo: float, hi: float, intervals: list) -> float:
    """Length of [lo, hi] covered by the union of `intervals`."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def _layer_of(group: str) -> str:
    return group.split(".", 1)[0]


def _outermost(span) -> bool:
    """No ancestor span in the same group (recursion and re-entry count once)."""
    parent = span[3]
    while parent is not None:
        if parent[0] == span[0]:
            return False
        parent = parent[3]
    return True


def job_metrics(spans: list[list], workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced job.

    `<group>_s` is the wall time of a group's outermost spans, so it includes
    the spans they call; `<layer>.self_s` subtracts the time covered by any
    child span.  Times of spans on worker threads are summed over threads.
    """
    children: dict[int, list] = {}
    for s in spans:
        if s[3] is not None:
            children.setdefault(id(s[3]), []).append((s[1], s[2]))
    calls: dict[str, int] = {}
    wall: dict[str, float] = {}
    self_s: dict[str, float] = {}
    work: dict[str, float] = {}
    cpu: dict[str, float] = {}
    for s in spans:
        group, t0, t1 = s[0], s[1], s[2]
        self_s[group] = self_s.get(group, 0.0) + (
            t1 - t0 - _covered(t0, t1, children.get(id(s), [])))
        cpu[group] = cpu.get(group, 0.0) + s[5]
        if not _outermost(s):
            continue
        calls[group] = calls.get(group, 0) + 1
        wall[group] = wall.get(group, 0.0) + (t1 - t0)
        for key, value in (s[6] or {}).items():
            work[key] = work.get(key, 0) + value

    def c(group):
        return calls.get(group, 0)

    def w(group):
        return wall.get(group, 0.0)

    def selfs(*groups):
        return sum(self_s.get(g, 0.0) for g in groups)

    normals, normals_s = work.get("engine.normals", 0), w("engine.normals")
    simulations = c("engine.simulate")
    return {
        "engine.normals_s": normals_s,
        "engine.normals": normals,
        "engine.normals_per_s": normals / normals_s if normals_s > 0 else 0.0,
        "engine.simulations": simulations,
        "engine.paths": work.get("engine.paths", 0),
        "engine.self_s": selfs("engine.simulate", "engine.block"),
        "engine.parallel_eff": (
            cpu.get("engine.block", 0.0) / (workers * w("engine.simulate"))
            if w("engine.simulate") > 0 else 0.0),
        "dynamics.evolve_calls": c("dynamics.evolve"),
        "dynamics.evolve_s": w("dynamics.evolve"),
        "dynamics.bucket_updates": work.get("dynamics.bucket_updates", 0),
        "dynamics.drift_calls": c("dynamics.drift"),
        "dynamics.drift_s": w("dynamics.drift"),
        "dynamics.init_s": w("dynamics.init"),
        "dynamics.state_bytes": (work.get("dynamics.state_bytes", 0)
                                 / max(simulations, 1)),
        "dynamics.settle_calls": c("dynamics.settle"),
        "dynamics.settle_s": w("dynamics.settle"),
        "market_data.calls": (c("market_data.read") + c("market_data.write")
                              + c("market_data.build")),
        "market_data.self_s": selfs("market_data.read", "market_data.write",
                                    "market_data.build"),
        "market_data.records": work.get("market_data.records", 0),
        "market_data.bytes_read": work.get("market_data.bytes_read", 0),
        "market_data.bytes_written": work.get("market_data.bytes_written", 0),
        "curves.bootstrap_calls": c("curves.bootstrap"),
        "curves.bootstrap_s": w("curves.bootstrap"),
        "curves.lookup_calls": c("curves.lookup"),
        "curves.lookup_s": w("curves.lookup"),
        "pricers.analytic_calls": c("pricers.analytic"),
        "pricers.analytic_s": w("pricers.analytic"),
        "pricers.mc_calls": c("pricers.mc"),
        "cli.self_s": selfs("cli.main"),
    }


# Which hook groups feed each metric, so that a metric whose hooks are all
# absent, or whose meter failed, is reported as absent rather than as 0.
METRIC_SOURCES = {
    "engine.normals_s": ["engine.normals"],
    "engine.normals": ["engine.normals"],
    "engine.normals_per_s": ["engine.normals"],
    "engine.simulations": ["engine.simulate"],
    "engine.paths": ["engine.simulate"],
    "engine.self_s": ["engine.simulate", "engine.block"],
    "engine.parallel_eff": ["engine.simulate", "engine.block"],
    "dynamics.evolve_calls": ["dynamics.evolve"],
    "dynamics.evolve_s": ["dynamics.evolve"],
    "dynamics.bucket_updates": ["dynamics.evolve"],
    "dynamics.drift_calls": ["dynamics.drift"],
    "dynamics.drift_s": ["dynamics.drift"],
    "dynamics.init_s": ["dynamics.init"],
    "dynamics.state_bytes": ["dynamics.init"],
    "dynamics.settle_calls": ["dynamics.settle"],
    "dynamics.settle_s": ["dynamics.settle"],
    "market_data.calls": ["market_data.read", "market_data.write",
                          "market_data.build"],
    "market_data.self_s": ["market_data.read", "market_data.write",
                           "market_data.build"],
    "market_data.records": ["market_data.read"],
    "market_data.bytes_read": ["market_data.read"],
    "market_data.bytes_written": ["market_data.write"],
    "curves.bootstrap_calls": ["curves.bootstrap"],
    "curves.bootstrap_s": ["curves.bootstrap"],
    "curves.lookup_calls": ["curves.lookup"],
    "curves.lookup_s": ["curves.lookup"],
    "pricers.analytic_calls": ["pricers.analytic"],
    "pricers.analytic_s": ["pricers.analytic"],
    "pricers.mc_calls": ["pricers.mc"],
    "cli.self_s": ["cli.main"],
}

METERED = {"engine.normals", "engine.normals_per_s", "engine.paths",
           "dynamics.bucket_updates", "dynamics.state_bytes",
           "market_data.records", "market_data.bytes_read",
           "market_data.bytes_written"}


def absent_metrics(tracer: Tracer) -> list[str]:
    """Metrics none of whose hooks could be installed, or whose meter failed."""
    # A group is present when at least one of its hooks was installed.
    present = {h.group for h in tracer.hooks
               if f"{h.where}.{h.name}" not in tracer.absent}
    out = []
    for metric, groups in METRIC_SOURCES.items():
        if not any(g in present for g in groups):
            out.append(metric)
        elif metric in METERED and any(g in tracer.meter_errors for g in groups):
            out.append(metric)
    return out


def export_spans(spans: list[list]) -> list[dict]:
    """JSON-ready spans with integer ids and parent ids."""
    ids = {id(s): i for i, s in enumerate(spans)}
    return [{"id": i, "name": s[0], "start": s[1], "end": s[2],
             "parent": ids.get(id(s[3])) if s[3] is not None else None,
             "thread": s[4], "cpu_s": s[5], "work": s[6]}
            for i, s in enumerate(spans)]
