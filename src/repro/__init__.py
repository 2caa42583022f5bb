"""AdapTBF reproduction: decentralized bandwidth control for HPC storage.

A faithful, fully-simulated reproduction of *AdapTBF: Decentralized
Bandwidth Control via Adaptive Token Borrowing for HPC Storage* (Rashid &
Dai, IPPS 2025).  The package layers:

* :mod:`repro.sim` — a deterministic discrete-event engine;
* :mod:`repro.lustre` — the Lustre data path AdapTBF plugs into (NRS with
  FIFO/TBF policies, OSS thread pool, processor-sharing OSTs, job stats);
* :mod:`repro.core` — the AdapTBF framework itself (three-step token
  allocation with lending/borrowing records, remainder fairness, controller
  and rule daemon) plus the paper's baselines, ablations and the pluggable
  bandwidth-mechanism protocol/registry (``MECHANISMS``) every contender —
  including the EWMA-prediction and PID additions — resolves through;
* :mod:`repro.workloads` — Filebench-style synthetic and trace-driven
  workload patterns (the demand axis);
* :mod:`repro.scenarios` — the declarative pipeline: frozen ``ScenarioSpec``
  family, named scenario registry (the three §IV job mixes plus new ones:
  burst storms, elastic churn, ...), and the ``run_scenario(spec)`` entry
  point everything executes through;
* :mod:`repro.cluster` — spec materialization (``build(spec)``) and the
  experiment executor;
* :mod:`repro.metrics` — timelines, summaries and text rendering;
* :mod:`repro.experiments` — figure adapters and the unified CLI
  (``python -m repro.experiments run <scenario>``).

Quickstart
----------
>>> from repro.scenarios import REGISTRY, run_scenario
>>> result = run_scenario(REGISTRY.build("quickstart", file_mib=16.0))
>>> result.summary.aggregate_mib_s > 0
True

Variations are functional updates of a built spec, e.g.
``spec.with_topology(n_osts=4).with_policy(mechanism="static")``.
"""

from repro.cluster import ClusterTopology, ExperimentResult, build, execute
from repro.core import MECHANISMS, AdapTbf, BandwidthMechanism, TokenAllocationAlgorithm
from repro.scenarios import (
    REGISTRY,
    PolicySpec,
    RunSpec,
    ScenarioSpec,
    TopologySpec,
    run_scenario,
)

__version__ = "1.0.0"

__all__ = [
    "AdapTbf",
    "BandwidthMechanism",
    "MECHANISMS",
    "REGISTRY",
    "PolicySpec",
    "RunSpec",
    "ScenarioSpec",
    "TopologySpec",
    "ClusterTopology",
    "ExperimentResult",
    "TokenAllocationAlgorithm",
    "build",
    "execute",
    "run_scenario",
    "__version__",
]
