"""The repository's benchmark of record.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload bv-fig8-j2 --seed 0 --seconds 30 --trace 0

A run measures one workload for ``--seconds`` seconds.  It repeats *batches*:
each batch is a fresh interpreter (``batch.py``) that imports the library,
builds an ``ExecutionEngine``, runs a whole paper figure on the inputs the
seed selects and writes the figure's JSON artifact.  Every artifact is
checked against the reference recorded for its inputs (``checks.py``).

Measured batches run one BLAS/OpenMP thread per process (:data:`PINNED`):
on a machine of a few cores, BLAS threads spinning next to pool workers
measure the scheduler rather than the program.

``--trace 0`` reports the end-to-end metrics, each the median over the run's
batches.  ``--trace 1`` rotates through untraced, traced and unpinned
batches and reports per-layer metrics from the traced ones (``spans.py``
wraps the library's layer entry points from outside; ``attribution.py``
turns spans into self times), the tracing overhead against the untraced
ones, and what the caller's own BLAS threading costs (the unpinned ones).

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Outside a checkout of the repository (no ``src/repro``) the run exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from attribution import WORK_UNITS, layer_metrics
from checks import failed_circuits, load_reference, reference_circuits, reference_path
from machine import THREAD_VARIABLES, fingerprint
from workloads import FAMILIES, WORKLOADS, study_seed

HERE = Path(__file__).resolve().parent
#: Every batch must end this many seconds after the run started, which keeps
#: the whole run inside three minutes.
RUN_DEADLINE_S = 165.0
MIN_BATCHES = 3
SAMPLE_INTERVAL_S = 0.02
SCAN_INTERVAL_S = 0.5
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
#: Thread variables of measured batches: one BLAS/OpenMP thread per process.
PINNED = {name: "1" for name in THREAD_VARIABLES}

#: The paper's headline numbers, printed next to the reproduced ones.
PAPER = {
    "bv": {"gmean_pst_improvement": 1.38, "gmean_ist_improvement": 1.74},
    "qaoa": {"baseline_best_p": 2.0, "hammer_best_p": 3.0},
}


def _stat(pid: int) -> tuple[int, int] | None:
    """(session id, resident bytes) of a live process."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return int(fields[3]), int(fields[21]) * PAGE_BYTES


def session_pids(session: int) -> list[int]:
    """Every live process in a session (one pass over ``/proc``)."""
    pids = []
    for entry in os.scandir("/proc"):
        if entry.name.isdigit():
            stat = _stat(int(entry.name))
            if stat is not None and stat[0] == session:
                pids.append(int(entry.name))
    return pids


class TreeSampler(threading.Thread):
    """Peak summed RSS of a batch and every process it starts (its session).

    A pass over ``/proc`` finds the session's processes every
    :data:`SCAN_INTERVAL_S`; in between only those processes are read, which
    keeps the sampler's own CPU use far below the batch's.
    """

    def __init__(self, session: int) -> None:
        super().__init__(daemon=True)
        self.session = session
        self.peak = 0
        self._stop_event = threading.Event()

    def run(self) -> None:
        pids: list[int] = []
        next_scan = 0.0
        while not self._stop_event.is_set():
            if time.monotonic() >= next_scan:
                pids = session_pids(self.session)
                next_scan = time.monotonic() + SCAN_INTERVAL_S
            stats = (_stat(pid) for pid in pids)
            total = sum(stat[1] for stat in stats if stat is not None and stat[0] == self.session)
            self.peak = max(self.peak, total)
            self._stop_event.wait(SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        self._stop_event.set()
        self.join()


def reap_session(session: int) -> None:
    """Kill whatever a batch left behind in its session and wait until it is gone."""
    for _ in range(250):
        pids = session_pids(session)
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.02)
    raise RuntimeError(f"processes of session {session} survived SIGKILL")


def import_seconds(stderr: str) -> dict[str, float]:
    """Self import time of scipy and networkx from ``-X importtime`` output.

    Only lines before the batch's ``perfbench: imported`` marker count, so
    lazy imports during the run are not charged to set-up.
    """
    totals = {"scipy": 0.0, "networkx": 0.0}
    for line in stderr.splitlines():
        if line.startswith("perfbench: imported"):
            break
        if not line.startswith("import time:"):
            continue
        self_us, _, module = (part.strip() for part in line[len("import time:"):].split("|"))
        top = module.split(".")[0]
        if top in totals and self_us.isdigit():
            totals[top] += int(self_us) / 1e6
    return totals


def dir_bytes(path: Path) -> int:
    return sum(item.stat().st_size for item in path.rglob("*") if item.is_file())


def batch_env(root: Path, pinned: bool = True) -> dict[str, str]:
    """The caller's environment, with the checkout's ``src`` importable.

    ``pinned`` batches get one BLAS/OpenMP thread per process; the others
    keep whatever threading the caller's environment gives.
    """
    env = dict(os.environ)
    if pinned:
        env.update(PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # A tuned cost-model profile lives outside the checkout; the documented
    # heuristic dispatch is what the benchmark measures.
    env["REPRO_TUNE_PROFILE"] = "off"
    return env


def batch_spec(family: str, seed: int, jobs: int, cache_dir: Path, directory: Path,
               trace: bool, run_id: str) -> dict:
    """The JSON spec ``batch.py`` takes; its files all go under ``directory``."""
    return {
        "family": family,
        "config": FAMILIES[family],
        "seed": seed,
        "jobs": jobs,
        "cache_dir": str(cache_dir),
        "artifact": str(directory / "artifact.json"),
        "trace": trace,
        "run_id": run_id,
        "spool_dir": str(directory / "spool"),
        "spans_out": str(directory / "spans.json"),
    }


class Run:
    """One benchmark run: its batches, their checks and their measurements."""

    def __init__(self, root: Path, workload, seed: int, held_out: bool) -> None:
        self.root = root
        self.workload = workload
        self.family = workload.family
        self.seed = study_seed(self.family, seed, held_out)
        self.reference = load_reference(self.family, self.seed)
        self.started = time.monotonic()
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=self._work_root()))
        self.envs = {pinned: batch_env(root, pinned) for pinned in (True, False)}
        self.batches = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _work_root(self) -> Path:
        path = self.root / ".perfbench-work"
        path.mkdir(exist_ok=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            (self.root / ".perfbench-work").rmdir()
        except OSError:
            pass

    def time_left(self) -> float:
        return RUN_DEADLINE_S - (time.monotonic() - self.started)

    def batch(self, jobs: int, cache_dir: Path, trace: bool, pinned: bool = True) -> dict | None:
        """Run one batch; returns its measurements, or None if it failed."""
        self.batches += 1
        directory = self.work / f"batch-{self.batches}"
        (directory / "spool").mkdir(parents=True)
        spec = batch_spec(self.family, self.seed, jobs, cache_dir, directory, trace,
                          f"{self.workload.name}-{self.seed}-{self.batches}")
        command = [sys.executable]
        if trace:
            command += ["-X", "importtime"]
        command += [str(HERE / "batch.py"), json.dumps(spec)]
        circuits = reference_circuits(self.reference, self.family)
        self.attempted += circuits

        spawn = time.monotonic()
        process = subprocess.Popen(
            command, cwd=self.root, env=self.envs[pinned], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        sampler = TreeSampler(process.pid)
        sampler.start()
        try:
            stdout, stderr = process.communicate(timeout=max(1.0, self.time_left()))
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            stdout, stderr = process.communicate()
            self.problems.append(f"batch {self.batches} timed out")
        finally:
            sampler.stop()
            reap_session(process.pid)

        if process.returncode != 0:
            self.failed += circuits
            tail = "\n".join(stderr.strip().splitlines()[-5:])
            self.problems.append(f"batch {self.batches} exited {process.returncode}: {tail}")
            return None
        stamps = json.loads(stdout.strip().splitlines()[-1])
        artifact = json.loads(Path(spec["artifact"]).read_text(encoding="utf-8"))
        failed = failed_circuits(artifact, self.reference, self.family)
        if failed:
            self.failed += failed
            self.problems.append(
                f"batch {self.batches}: {failed} circuits disagree with "
                f"{reference_path(self.family, self.seed).name}"
            )
        stamps["spawn"] = spawn
        result = {
            "artifact": artifact,
            "wall_s": stamps["done"] - spawn,
            "setup_s": stamps["ready"] - spawn,
            "peak_rss_mb": max(sampler.peak, stamps["maxrss_kb"] * 1024) / 2**20,
            "circuits": circuits,
        }
        if trace:
            stamps.update(
                {f"import_{name}_s": seconds for name, seconds in import_seconds(stderr).items()}
            )
            stamps["cache_disk_bytes"] = dir_bytes(cache_dir)
            spans = json.loads(Path(spec["spans_out"]).read_text(encoding="utf-8"))["spans"]
            result["layers"] = layer_metrics(spans, stamps, process.pid)
        return result

    def fresh_cache(self) -> Path:
        path = self.work / f"cache-{self.batches + 1}"
        path.mkdir()
        return path

    def check_warm_replay(self) -> None:
        """Untimed warm-up: fill a cache at ``--jobs 2``, replay it at ``--jobs 1``.

        The replay reads every transpile, ideal and sample from the cache and
        must reproduce the fill's rows bit for bit.
        """
        cache = self.fresh_cache()
        filled = self.batch(2, cache, trace=False)
        replayed = self.batch(1, cache, trace=False)
        shutil.rmtree(cache, ignore_errors=True)
        if filled and replayed and replayed["artifact"]["rows"] != filled["artifact"]["rows"]:
            self.problems.append(
                f"batch {self.batches}: --jobs 1 cache replay rows differ from the --jobs 2 fill"
            )
            self.failed += replayed["circuits"]

    def measure(self, seconds: float, trace: bool) -> list[dict]:
        """Batches for about ``seconds`` seconds (and at least the minimum)."""
        if self.workload.warm_check:
            self.check_warm_replay()

        results: list[dict] = []
        start = time.monotonic()
        minimum = 1 if trace else MIN_BATCHES
        rounds: list[float] = []
        # A round is one batch, or an untraced, a traced and an unpinned one
        # in rotating order.  Start another only if a typical round still
        # ends inside the window.
        kinds = [(False, True), (True, True), (False, False)] if trace else [(False, True)]
        while len(rounds) < minimum or (
            time.monotonic() - start + statistics.median(rounds) <= seconds
        ):
            if rounds and self.time_left() < 1.5 * max(rounds):
                break
            round_start = time.monotonic()
            turn = len(rounds) % len(kinds)
            for traced, pinned in kinds[turn:] + kinds[:turn]:
                cache = self.fresh_cache()
                result = self.batch(self.workload.jobs, cache, traced, pinned)
                shutil.rmtree(cache, ignore_errors=True)
                if result is None:
                    continue
                result["traced"] = traced
                result["pinned"] = pinned
                results.append(result)
            rounds.append(time.monotonic() - round_start)
        return results


def untraced(results: list[dict], pinned: bool = True) -> list[dict]:
    return [r for r in results if not r["traced"] and r["pinned"] == pinned]


def end_to_end(results: list[dict]) -> dict[str, tuple[float, str]]:
    plain = untraced(results)

    def median(key: str) -> float:
        return statistics.median(result[key] for result in plain)

    return {
        "wall_s": (median("wall_s"), "s"),
        "setup_s": (median("setup_s"), "s"),
        "circuits_per_s": (
            statistics.median(
                r["circuits"] / (r["wall_s"] - r["setup_s"]) for r in plain
            ),
            "1/s",
        ),
        "peak_rss_mb": (median("peak_rss_mb"), "MB"),
    }


def per_layer(results: list[dict], problems: list[str]) -> dict[str, tuple[float, str]]:
    traced = [result["layers"] for result in results if result["traced"]]
    plain = statistics.median(result["wall_s"] for result in untraced(results))
    for layers in traced[1:]:
        changed = [key for key in WORK_UNITS if layers[key] != traced[0][key]]
        if changed:
            problems.append(f"work units differ between traced batches: {changed}")
    metrics = {}
    for key in traced[0]:
        metrics[key] = (statistics.median(layers[key] for layers in traced), unit_of(key))
    traced_wall = statistics.median(
        result["wall_s"] for result in results if result["traced"]
    )
    metrics["trace_overhead_share"] = (traced_wall / plain - 1.0, "share")
    unpinned_wall = statistics.median(r["wall_s"] for r in untraced(results, pinned=False))
    metrics["blas.unpinned_slowdown_share"] = (unpinned_wall / plain - 1.0, "share")
    return metrics


def unit_of(key: str) -> str:
    if key.endswith("_per_s"):
        return "1/s"
    if key.endswith("_ms"):
        return "ms"
    if key.endswith("_s"):
        return "s"
    if key.endswith("share"):
        return "share"
    if key.endswith("disk_bytes"):
        return "bytes"
    return "count"


def paper_comparison(family: str, results: list[dict]) -> dict:
    summary = results[0]["artifact"]["summary"]
    return {
        key: {"reproduced": summary[key], "paper": paper}
        for key, paper in PAPER[family].items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--held-out", action="store_true",
                        help="use the held-out study seed instead of the one --seed selects")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {root}; run from a checkout's root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if not reference_path(workload.family, study_seed(workload.family, args.seed, args.held_out)).is_file():
        print("perfbench: no reference recorded for this seed", file=sys.stderr)
        return 2

    run = Run(root, workload, args.seed, args.held_out)
    try:
        print("machine:", json.dumps({**fingerprint(), "measured_batches": PINNED}, sort_keys=True))
        results = run.measure(args.seconds, bool(args.trace))
    finally:
        run.close()

    plain = untraced(results)
    traced = [result for result in results if result["traced"]]
    if not plain or (args.trace and not (traced and untraced(results, pinned=False))):
        run.problems.append("no batch completed")
        metrics = {}
    elif args.trace:
        metrics = per_layer(results, run.problems)
    else:
        metrics = end_to_end(results)

    print(f"workload: {workload.name}  study seed: {run.seed}  batches: "
          f"{len(plain)} untraced, {len(traced)} traced, "
          f"{len(untraced(results, pinned=False))} unpinned")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:16.6g} {unit}")
    print("  wall_s of each untraced batch:", " ".join(f"{r['wall_s']:.3f}" for r in plain))
    print(f"  {'error_rate':32s} {run.failed / max(run.attempted, 1):16.6g} share"
          f"  ({run.failed} of {run.attempted} circuits failed)")
    if plain:
        print("paper:", json.dumps(paper_comparison(workload.family, plain), sort_keys=True))
    for problem in run.problems:
        print("problem:", problem)
    print(json.dumps({
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
