"""Fixed computations that scale wall times to a nominal machine speed.

On a shared machine the same job can take twice as long for a minute at a
time while a neighbour loads the CPU.  Every wall time the benchmark
reports is therefore multiplied by NOMINAL_S[kind] / r, where r is the
time of a reference computation measured next to it: a kernel in the
same process for jobs, an import of other modules in a fresh interpreter
for `setup_s`.  Each workload uses the kernel whose work resembles its
own, because a neighbour slows interpreted code, small numpy calls and
large array updates by different factors.  The references belong to the
benchmark, so a change to colmm never changes them.
"""

from __future__ import annotations

import gc
import json
import statistics
import threading
from time import perf_counter

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri


def _python() -> None:
    """Interpreted code: JSON round trips and scalar lookups in small arrays,
    like parsing, bootstrapping and analytic pricing."""
    doc = {f"k{i}": [i * 0.5, str(i), {"x": i}] for i in range(1500)}
    doc = json.loads(json.dumps(doc, sort_keys=True))
    times = np.linspace(0.0, 10.0, 41)
    acc = 0.0
    for i in range(12000):
        idx = int(np.searchsorted(times, (i % 400) * 0.025, side="left"))
        acc += float(times[min(idx, 40)])
    assert len(doc) == 1500 and acc > 0.0


def _philox() -> None:
    """A Philox generator re-keyed per path with ndtri on its words, like
    the engine's normal generation."""
    bg = Philox(key=np.array([1, 0], dtype=np.uint64))
    for p in range(4500):
        state = bg.state
        state["state"]["key"][:] = (1, p)
        bg.state = state
        ndtri(((bg.random_raw(24) >> np.uint64(11)) + 0.5) * 2.0 ** -53)


def _array_updates() -> None:
    x = np.linspace(0.0, 1.0, 200_000).reshape(20_000, 10)
    load = np.full((3, 10), 0.01)
    for _ in range(35):
        x = x * np.exp(-0.01 * x) + x[:, :3] @ load


def _evolve() -> None:
    """Large elementwise updates with a thin matrix product on two threads,
    then interpreted small-array work, like state evolution with two
    workers that rebuild their drift vectors every step."""
    threads = [threading.Thread(target=_array_updates) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    _python()


KERNELS = {"python": _python, "philox": _philox, "evolve": _evolve}

# The reference for `setup_s`: numpy and standard packages that colmm does
# not use, imported in a fresh interpreter of their own, which is the same
# kind of work as importing colmm.cli and independent of colmm's code.
IMPORT_MODULES = ("numpy, decimal, email.mime.multipart, http.server, "
                  "xml.dom.minidom, xmlrpc.client, unittest, sqlite3, "
                  "logging.handlers")

# Each reference's time on a 2-vCPU Xeon VM at 2.0 GHz in its fast periods,
# so that reported seconds read like wall seconds on that machine then.
NOMINAL_S = {"python": 0.026, "philox": 0.037, "evolve": 0.063,
             "import": 0.14}


def reference_seconds(kind: str) -> float:
    """Wall seconds of one run of a kernel, with the collector paused."""
    gc.disable()
    try:
        t0 = perf_counter()
        KERNELS[kind]()
        return perf_counter() - t0
    finally:
        gc.enable()


def nominal_scale(kind: str, refs: list[float], i: int) -> float:
    """Factor that brings the wall time of job i to nominal speed.

    refs[i] is measured just before job i and refs[i + 1] just after it;
    the median of the four around the job ignores a single slow reference.
    """
    return NOMINAL_S[kind] / statistics.median(refs[max(i - 1, 0):i + 3])
