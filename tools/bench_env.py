"""The environment a benchmark ran in, as one JSON object, and the helpers
that ``tools/bench_record.py`` and ``tools/bench_pair.py`` share.

Both scripts write the environment into their output file, since each
entry moves the numbers: the Python, numpy and C library versions, the CPU
count, and the environment variables that change how the interpreter
compiles or allocates.  glibc's malloc options
(``MALLOC_*``, ``GLIBC_TUNABLES``) decide whether freed memory is trimmed
and whether large blocks are mmapped, so any one of them voids a gain
that comes from page faults; ``PYTHONDONTWRITEBYTECODE`` makes every
process compile the library from source.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path

# recorded whenever set, with every variable named MALLOC_*
VARIABLES = ("GLIBC_TUNABLES", "PYTHONDONTWRITEBYTECODE", "PYTHONMALLOC")


def environment(environ=None) -> dict:
    """The versions, CPU count and recorded variables of this process, or of
    ``environ`` (a mapping like ``os.environ``) for the variables."""
    environ = os.environ if environ is None else environ
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "libc": list(platform.libc_ver()),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "variables": {name: environ[name] for name in sorted(environ)
                      if name.startswith("MALLOC_") or name in VARIABLES},
    }


def git(root: Path, *args) -> str:
    """The stripped standard output of ``git *args`` run in ``root``."""
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                          check=True).stdout.strip()


def result_line(stdout: str) -> dict:
    """The run's result: the JSON object on the last nonempty line."""
    return json.loads(stdout.strip().splitlines()[-1])
