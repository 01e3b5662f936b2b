"""Make the package importable from a fresh checkout (no install needed).

The test and benchmark suites import ``repro`` directly; inserting ``src/``
at the front of ``sys.path`` lets ``pytest`` run even when the package has
not been pip-installed (e.g. offline environments without the ``wheel``
package).
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def pytest_addoption(parser):
    """Register the golden-fixture regeneration flag.

    ``pytest tests/golden --regen-golden`` rewrites the checked-in JSON rows
    under ``tests/golden/`` from the current code instead of comparing
    against them.  Regenerate only when a change is *supposed* to move the
    numbers (new RNG layout, algorithmic change), and say so in the commit.
    """
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json fixtures instead of asserting against them",
    )

