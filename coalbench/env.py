"""Locate the program under test: the ``src/`` tree of this checkout.

The benchmark runs against the sources next to it, never against an
installed copy, so a checkout without ``src/repro`` is refused.
"""

from __future__ import annotations

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(REPO_ROOT, "src")
WORK_DIR = os.path.join(REPO_ROOT, ".coalbench_run")


class MissingProgram(RuntimeError):
    """The checkout holds the benchmark but not the program."""


def require_program() -> None:
    """Put this checkout's ``src`` first on ``sys.path`` or raise."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingProgram(f"no program sources at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
