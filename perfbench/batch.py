"""One batch: a fresh interpreter sets up, runs one paper figure, writes its artifact.

``run.py`` starts this script once per batch with a JSON spec as its only
argument, so every batch pays the same import and engine set-up a user pays
for one figure.  The last line of standard output is a JSON object of
``time.monotonic()`` stamps (the clock is system-wide, so the caller can
subtract its own spawn stamp) and the process's peak resident memory.

In a traced batch the wrappers of :mod:`spans` are installed once the
engine is built, the artifact write is a ``report`` span, and all spans are
written to ``spec["spans_out"]`` after the artifact.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402


def run_study(spec: dict, engine):
    from repro.experiments import BvStudyConfig, LayersStudyConfig, run_bv_study, run_layers_study

    config = spec["config"]
    if spec["family"] == "bv":
        study = BvStudyConfig(
            qubit_range=tuple(config["qubit_range"]),
            keys_per_size=config["keys_per_size"],
            shots=config["shots"],
            seed=spec["seed"],
        )
        return run_bv_study(study, engine=engine)
    study = LayersStudyConfig(
        node_values=tuple(config["node_values"]),
        layer_values=tuple(config["layer_values"]),
        shots=config["shots"],
        seed=spec["seed"],
    )
    return run_layers_study(study, engine=engine)


def main(spec: dict) -> dict:
    import_start = time.monotonic()
    from repro.engine import ExecutionEngine
    import repro.experiments  # noqa: F401  (the study entry points a figure needs)

    imported = time.monotonic()
    if spec["trace"]:
        # Ends the part of the -X importtime log that counts as set-up.
        print("perfbench: imported", file=sys.stderr, flush=True)
    engine = ExecutionEngine(max_workers=spec["jobs"], cache_dir=spec["cache_dir"])
    ready = time.monotonic()

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer(spec["run_id"], spec["spool_dir"])
        installed = spans.install(tracer)
    report = run_study(spec, engine)
    with tracer.span("report") if tracer else nullcontext():
        Path(spec["artifact"]).write_text(report.to_json(), encoding="utf-8")
    done = time.monotonic()
    engine.close()

    if tracer:
        spans.uninstall(installed)
        payload = {"run": spec["run_id"], "spans": tracer.collect()}
        Path(spec["spans_out"]).write_text(json.dumps(payload), encoding="utf-8")
    return {
        "started": STARTED,
        "import_start": import_start,
        "imported": imported,
        "ready": ready,
        "done": done,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
