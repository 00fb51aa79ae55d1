"""Paths and the source-tree import shared by the benchmark scripts.

The benchmark always runs the pattherm found in ``src/`` of the checkout
it lives in, never an installed copy, and refuses to run without it.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
INPUTS = BENCH / "inputs"
GOLDENS = BENCH / "goldens"
WORK = BENCH / "_work"
RESULTS = BENCH / "results"

# One closed-loop client on one core: pin every BLAS/OpenMP pool to a
# single thread before numpy is first imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class MissingSourceError(RuntimeError):
    """The checkout has no src/pattherm to benchmark."""


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_src() -> None:
    """Put the checkout's src/ first on sys.path; fail if it is absent."""
    if not (SRC / "pattherm" / "__init__.py").is_file():
        raise MissingSourceError(f"no pattherm package under {SRC}")
    path = str(SRC)
    if path in sys.path:
        sys.path.remove(path)
    sys.path.insert(0, path)


def rel(path: Path) -> str:
    """Path relative to the checkout root, as the CLI sees it."""
    return Path(path).resolve().relative_to(ROOT).as_posix()
