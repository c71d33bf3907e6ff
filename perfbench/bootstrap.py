"""Process set-up shared by the benchmark scripts.

`pin_threads` must run before numpy is first imported: OpenBLAS reads
its thread count once, at load time.  `import_program` imports dofde
from the checkout's own `src/` and refuses any other copy, so a
directory without the program's sources cannot be benchmarked by
accident against an installed package.
"""

import os
import sys
from pathlib import Path

# One BLAS/OpenMP thread on both sides of every comparison.  Two threads
# gave no speed-up on the solve workload and doubled its CPU time, and a
# single thread keeps reductions (and so iteration counts) reproducible.
THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


class MissingProgram(RuntimeError):
    """The checkout holds no dofde sources to benchmark."""


def pin_threads():
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads must run before numpy is imported")
    for var in _THREAD_VARS:
        os.environ[var] = str(THREADS)


def program_env():
    """Environment for a child interpreter that imports dofde from src/,
    caching bytecode as an installed package would."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    for var in _THREAD_VARS:
        env[var] = str(THREADS)
    return env


def import_program():
    """Import dofde (and its CLI) from ROOT/src, or raise MissingProgram."""
    package = SRC / "dofde"
    if not (package / "__init__.py").is_file():
        raise MissingProgram(f"no dofde sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dofde
    import dofde.cli  # noqa: F401  (the study workloads drive the CLI)

    if Path(dofde.__file__).resolve().parent != package:
        raise MissingProgram(f"dofde was imported from {dofde.__file__}, not {package}")
    return dofde
