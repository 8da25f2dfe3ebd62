"""Importing the library leaves the heavy optional machinery unloaded.

Offsets are generated without ``numpy.random`` and the process pool is
imported only where a pool opens, so a process that routes but never forks
does not pay their resident memory (about 2 MiB and 1.7 MiB).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro

HEAVY_MODULES = ("numpy.random", "multiprocessing", "concurrent.futures.process")


def test_library_import_leaves_heavy_modules_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = (
        "import json, sys\n"
        "import repro, repro.api, repro.core.engine\n"
        "from repro.core.universal import RandomSequenceProvider\n"
        "RandomSequenceProvider().sequence_for(8)\n"
        f"print(json.dumps([name for name in {HEAVY_MODULES!r} if name in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    output = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(output.splitlines()[-1]) == []
