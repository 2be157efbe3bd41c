"""toepreg benchmark: seeded solves of the public API, timed from outside.

Usage, from the repository root:

    python3 perfbench/run.py --workload square --seed 1 --seconds 20 --trace 0

The solver is imported from ``src/`` of the checkout this file lives in; no
install is needed, and the run stops with an error when the sources are
missing.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Human-readable lines come first, then an environment
record, and the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Solve times are in calibrated
seconds, which take the host's momentary speed out (see ``measure.py``).
The full record (settings, environment, per-run detail and, when traced,
every span) is also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def cap_threads():
    """At most one BLAS/OpenMP thread per usable CPU; set before numpy loads."""
    cpus = _cpus()
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, cpus))
        except ValueError:
            wanted = cpus
        os.environ[var] = str(max(1, min(wanted, cpus)))


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np
    import scipy
    import scipy.fft

    import measure

    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": _cpus(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "scipy_fft_workers": scipy.fft.get_workers(),  # numpy.fft is single-threaded
        "longdouble_extends_double": measure.LONGDOUBLE_EXTENDS,
        "machine": platform.machine(),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("square", "rect", "nufft"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None, size: int = None, out_dir: Path = OUT) -> int:
    """Run one workload; ``size`` overrides the problem size (tests)."""
    args = parse_args(argv)
    if not (SRC / "toepreg" / "__init__.py").is_file():
        print(f"perfbench: no toepreg sources under {SRC}", file=sys.stderr)
        return 2
    cap_threads()
    start = time.perf_counter()
    for path in (str(SRC), str(Path(__file__).resolve().parent)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import toepreg

    import measure

    import_s = time.perf_counter() - start
    if Path(toepreg.__file__).resolve().parent != SRC / "toepreg":
        print(f"perfbench: imported toepreg from {toepreg.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    result = measure.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         n=size, import_s=import_s)
    env = environment()
    detail = result["detail"]
    print(f"workload={args.workload} seed={args.seed} size={detail['size']} "
          f"rounds={detail['rounds']} attempted={result['attempted']} "
          f"failed={result['failed']} fail_ratio={detail['fail_ratio']:g}")
    print(f"  reference kernel: median {statistics.median(detail['reference_s']):.4g} s "
          f"over {len(detail['reference_s'])} probes; loop times below are calibrated "
          f"to {measure.REFERENCE_S:g} s")
    wall = detail["wall_metrics"]
    if wall:
        print(f"  in wall seconds: solve_s_p50 = {wall['solve_s_p50']:.6g} s, "
              f"kparams_per_s = {wall['kparams_per_s']:.6g} 1e3/s")
    for error in detail["errors"]:
        print(f"  failure: {error}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print("env " + json.dumps(env, sort_keys=True))

    out_dir.mkdir(parents=True, exist_ok=True)
    record = dict(result, settings=vars(args), env=env)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
