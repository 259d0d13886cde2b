"""Benchmark for the hlsmm trainer.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload {large_fit,wdbc_grid} \
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` it prints the end-to-end metrics (fastest set-up, the
timed section's time in probe units, peak allocation, held-out accuracy); with
``--trace 1`` a traced run prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Spans and the full result, with the machine it ran on, are
written to ``.bench_out/`` in the checkout.  The library is imported from
the checkout's ``src/``; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))

# The BLAS thread cap must be in place before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hlsmm" / "__init__.py").is_file():
        print(f"bench: no hlsmm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    return harness.run(args, ROOT, NPROC)


if __name__ == "__main__":
    sys.exit(main())
