"""Import-time budget: running a figure must not pay for scipy.

``repro.engine`` plus ``repro.experiments`` is everything a paper figure
imports.  scipy costs about a second of import and only two rarely used
functions need it (a rank correlation and the variational optimiser), so
both import it when called.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_engine_and_experiments_import_without_scipy():
    code = "import sys, repro.engine, repro.experiments; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
