"""One SHA-256 per (workload, seed) over everything the benchmark jobs make.

    PYTHONPATH=src python3 tools/workload_digests.py [--seeds 7 11]
        [--workers 1 2 3] [--keep DIR]

Runs every setup and job of each workload in `perfbench/workloads.py`
through `colmm.cli.main`, in a temporary directory, and prints one line
per (workload, seed).  Each digest covers, in run order, every step's
exit code, its standard output (with the path after "wrote curve set to"
masked, since the directory differs between runs) and every output file
of the setups and jobs.  After a job's outputs, each of its `diagnose`
steps runs again with `--corrupt-drift-c` appended, the negative control,
and its exit code, standard output and report enter the digest too.  The
worker count is the program's own:
`COLMM_WORKERS` from the environment.  With `--workers`, every workload
runs at each count in turn, with `COLMM_WORKERS` set to it, and the
caller's value is put back at the end; the last line then says whether
each (workload, seed) has one digest across the counts, and the exit
code is 1 when one does not.  With `--keep DIR`, every output file that
enters a digest is copied to DIR/<workload>/seed<seed>/workers<count>/
(count "unset" without `--workers` or COLMM_WORKERS), the negative
control's report as <name>.corrupt-drift-c.json, so that two trees'
reports go straight into tools/report_diff.py.  colmm is imported from
PYTHONPATH, else from this checkout's `src/`, and the file it came from
is printed to standard error.  Two commits give the same numbers when the lines
printed with each one's `src/` on PYTHONPATH are equal.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import re
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_WROTE = re.compile(r"^(wrote curve set to ).*$", re.MULTILINE)


def workload_digest(cli, workload, seed: int,
                    keep: Path | None = None) -> str:
    """SHA-256 over the exit codes, stdout and outputs of one workload;
    each output is copied into `keep` too, when given."""
    h = hashlib.sha256()

    def run(argv) -> None:
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(argv)
        h.update(f"exit {code}\n".encode())
        h.update(_WROTE.sub(r"\1<path>", out.getvalue()).encode())

    def hash_outputs(job, control: bool = False) -> None:
        for path in job.outputs:
            if path.exists():
                h.update(path.read_bytes())
                if keep is not None:
                    keep.mkdir(parents=True, exist_ok=True)
                    shutil.copyfile(path, keep / (
                        f"{path.stem}.corrupt-drift-c{path.suffix}"
                        if control else path.name))

    with tempfile.TemporaryDirectory() as tmp:
        setups, jobs = workload.prepare(Path(tmp), seed)
        for job in [*setups, *jobs]:
            for argv in job.steps:
                run(argv)
            hash_outputs(job)
            # The negative control overwrites the report just hashed.
            for argv in job.steps:
                if argv[0] == "diagnose":
                    run([*argv, "--corrupt-drift-c"])
                    hash_outputs(job, control=True)
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    parser.add_argument("--workers", type=int, nargs="+", default=None,
                        help="run at each of these COLMM_WORKERS counts")
    parser.add_argument("--keep", type=Path, default=None, metavar="DIR",
                        help="copy every output to DIR/<workload>/"
                             "seed<seed>/workers<count>/")
    args = parser.parse_args(argv)
    # As the benchmark runs: one BLAS thread, set before numpy is imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.append(str(ROOT / "src"))

    from colmm import cli
    from workloads import WORKLOADS

    print(f"colmm from {cli.__file__}", file=sys.stderr)
    caller = os.environ.get("COLMM_WORKERS")
    found: dict[tuple, set] = {}
    try:
        for count in args.workers or [caller]:
            if count is not None:
                os.environ["COLMM_WORKERS"] = str(count)
            workers = "unset" if count is None else str(count)
            for name, workload in WORKLOADS.items():
                for seed in args.seeds:
                    keep = (args.keep / name / f"seed{seed}"
                            / f"workers{workers}" if args.keep else None)
                    digest = workload_digest(cli, workload, seed, keep)
                    found.setdefault((name, seed), set()).add(digest)
                    print(f"{name} seed={seed} COLMM_WORKERS={workers} "
                          f"{digest}")
    finally:
        if caller is None:
            os.environ.pop("COLMM_WORKERS", None)
        else:
            os.environ["COLMM_WORKERS"] = caller
    if args.workers is None:
        return 0
    counts = " ".join(map(str, args.workers))
    differ = [f"{name} seed={seed}" for (name, seed), digests in found.items()
              if len(digests) > 1]
    if differ:
        print(f"digests differ across COLMM_WORKERS {counts}: "
              + ", ".join(differ))
        return 1
    print(f"each of {len(found)} (workload, seed) pairs has one digest "
          f"across COLMM_WORKERS {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
