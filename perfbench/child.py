"""One benchmark step in a fresh interpreter; started by ``run.py``.

Usage::

    python3 perfbench/child.py {setup,measure,trace} WORKLOAD SEED SECONDS

Prints one JSON object on standard output: the spans of ``setup``, the
operation samples of ``measure``, or the runs and per-layer numbers of
``trace`` (see :mod:`workloads`).
"""

import json
import sys
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parents[1] / "src"))


def main(argv) -> int:
    mode, name, seed, seconds = argv
    from workloads import PACKAGE, WORK_ROOT, WORKLOADS

    workload = WORKLOADS[name]
    if mode == "setup":
        out = workload.setup(int(seed))
    elif mode == "measure":
        out = workload.measure(int(seed), float(seconds))
    elif mode == "trace":
        from layers import LayerMap

        out = workload.trace(int(seed), LayerMap(PACKAGE))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out), flush=True)
    if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
        WORK_ROOT.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
