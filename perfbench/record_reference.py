"""Record ``reference.json``: the simulated outputs the benchmark pins.

Usage::

    python3 perfbench/record_reference.py

Runs each workload twice per seed of :data:`RECORDED_SEEDS`, untraced, and
stores its outputs per seed, plus the seed-invariant fields of seed 0 that a
held-out seed must reproduce.  Re-recording changes what counts as correct:
do it only for an intended change of the model, and say why in the change's
notes.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE, SEED_INVARIANT, WORKLOAD_NAMES, Children

#: Seeds whose outputs are pinned exactly; any other seed is held out.
RECORDED_SEEDS = range(20)


def record(name: str) -> dict:
    seeds = {}
    for seed in RECORDED_SEEDS:
        samples = Children(name, seed, 0.0).run("measure")["samples"]
        outputs = samples[0]["outputs"]
        if any(sample["outputs"] != outputs for sample in samples):
            raise SystemExit(f"{name} seed {seed}: runs disagree")
        seeds[str(seed)] = outputs
        print(f"{name} seed {seed}: recorded", flush=True)
    invariant = {key: seeds["0"][key] for key in SEED_INVARIANT if key in seeds["0"]}
    for seed, outputs in seeds.items():
        if any(outputs[key] != value for key, value in invariant.items()):
            raise SystemExit(f"{name} seed {seed}: seed-invariant fields vary")
    return {"invariant": invariant, "seeds": seeds}


def main() -> int:
    reference = {"workloads": {name: record(name) for name in WORKLOAD_NAMES}}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
