"""Process environment for the benchmark: BLAS threads, import path, record.

``pin_threads`` must run before anything imports numpy: the BLAS thread
count is read once, when the library loads.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

#: Checkout root: the directory that holds ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(RuntimeError):
    """The checkout holds no voxaff sources to benchmark."""


def pin_threads():
    """Single-threaded BLAS, and the checkout's own ``src`` first on the path."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS threads were pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "voxaff" / "__init__.py").is_file():
        raise MissingProgram(f"no voxaff package under {SRC.relative_to(ROOT)}/")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _git_sha() -> str:
    """HEAD of the checkout read from ``.git`` files; ``unknown`` outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas() -> str:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return f"{blas.get('name', '?')} {blas.get('version', '?')}".strip()
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def record() -> dict:
    """Machine and build facts stored with every result."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_sha": _git_sha(),
    }
