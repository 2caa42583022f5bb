"""Declarative scenario pipeline.

The subsystem that turns a *description* of an experiment into results::

    ScenarioSpec ──build()──▶ ClusterTopology ──execute()──▶ ExperimentResult

* :mod:`repro.scenarios.spec` — the frozen ``ScenarioSpec`` dataclass
  family (topology, jobs, policy, run);
* :mod:`repro.scenarios.registry` — name → scenario-factory registry
  behind ``python -m repro.experiments run/list/describe``;
* :mod:`repro.scenarios.runner` — the single execution entry point
  (``run_scenario`` chains ``build`` and ``execute``);
* :mod:`repro.scenarios.builtin` — the paper's scenarios plus new ones
  (burst storms, elastic churn, heterogeneous OSTs), self-registered on
  import.
"""

from repro.scenarios.registry import REGISTRY, ScenarioRegistry
from repro.scenarios.spec import (
    PolicySpec,
    RunSpec,
    ScenarioSpec,
    TopologySpec,
)

# Populate REGISTRY with the built-in scenarios.
from repro.scenarios import builtin as _builtin  # noqa: F401  (side effect)

#: Names resolved lazily from :mod:`repro.scenarios.runner` (PEP 562).
#: The runner pulls in the cluster layer, which itself consumes the spec
#: family from this package — deferring the import keeps the package
#: importable from either end of that chain.
_RUNNER_EXPORTS = (
    "PAPER_MECHANISMS",
    "run_mechanisms",
    "run_scenario",
)


def __getattr__(name: str):
    if name in _RUNNER_EXPORTS:
        from repro.scenarios import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "PAPER_MECHANISMS",
    "PolicySpec",
    "REGISTRY",
    "RunSpec",
    "ScenarioRegistry",
    "ScenarioSpec",
    "TopologySpec",
    "run_mechanisms",
    "run_scenario",
]
