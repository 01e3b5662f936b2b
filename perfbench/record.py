"""Record the reference artifacts the output check compares against.

Run from the root of a checkout::

    python3 perfbench/record.py

It records every study seed of both families (about five minutes).  Each
reference is the ``rows`` and ``summary`` of one serial batch on an empty
cache dir.  Re-record only when a change is meant to move the figures,
and say so in the change.  The machine the references were recorded on goes
to ``references/machine.json``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from checks import REFERENCE_DIR, reference_path
from machine import fingerprint
from run import HERE, batch_env, batch_spec
from workloads import FAMILIES, HELD_OUT_SEEDS, STUDY_SEEDS


def record(root: Path, family: str, seed: int) -> None:
    with tempfile.TemporaryDirectory(prefix="record-", dir=root) as scratch:
        directory = Path(scratch)
        (directory / "cache").mkdir()
        spec = batch_spec(family, seed, 1, directory / "cache", directory, False, "record")
        subprocess.run(
            [sys.executable, str(HERE / "batch.py"), json.dumps(spec)],
            cwd=root, env=batch_env(root), check=True, stdout=subprocess.DEVNULL,
        )
        artifact = json.loads((directory / "artifact.json").read_text(encoding="utf-8"))
    reference = {"rows": artifact["rows"], "summary": artifact["summary"]}
    reference_path(family, seed).write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")


def main() -> int:
    root = Path.cwd()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for family in sorted(FAMILIES):
        for seed in STUDY_SEEDS[family] + (HELD_OUT_SEEDS[family],):
            record(root, family, seed)
            print(f"recorded {reference_path(family, seed).name}")
    machine = REFERENCE_DIR / "machine.json"
    machine.write_text(json.dumps(fingerprint(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
