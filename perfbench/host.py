"""Host fingerprint recorded with every result.

The BLAS thread settings are reported as found; the benchmark does not
set them.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import re
from pathlib import Path

import numpy as np
import scipy

_OPENBLAS_PREFIXES = ("scipy_openblas_", "openblas_")
_OPENBLAS_SUFFIXES = ("64_", "")


def _openblas_libraries() -> list[dict]:
    """Version, build options and thread count of each bundled OpenBLAS."""
    found = []
    for package in (np, scipy):
        libs = Path(package.__file__).resolve().parent.with_name(package.__name__ + ".libs")
        for path in sorted(libs.glob("*openblas*.so*")) if libs.is_dir() else []:
            lib = ctypes.CDLL(str(path))
            for prefix in _OPENBLAS_PREFIXES:
                for suffix in _OPENBLAS_SUFFIXES:
                    get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                    get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                    if get_config is None or get_threads is None:
                        continue
                    get_config.restype = ctypes.c_char_p
                    get_config.argtypes = []
                    get_threads.restype = ctypes.c_int
                    get_threads.argtypes = []
                    config = get_config().decode()
                    max_threads = re.search(r"MAX_THREADS=(\d+)", config)
                    found.append({
                        "used_by": package.__name__,
                        "config": config,
                        "num_threads": get_threads(),
                        "max_threads": int(max_threads.group(1)) if max_threads else None,
                    })
    return found


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
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
    return None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(root: Path) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_libraries(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root / "src"),
    }
