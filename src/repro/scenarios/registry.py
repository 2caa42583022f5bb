"""Named scenario registry behind the ``run`` CLI.

The generic factory machinery lives in :mod:`repro.registry` (shared with
campaigns and bandwidth mechanisms); this module specializes it for
:class:`~repro.scenarios.spec.ScenarioSpec` factories and hosts the
process-wide default :data:`REGISTRY`::

    @REGISTRY.register("quickstart", description="2 jobs, 1 OST")
    def _quickstart(file_mib: float = 256.0, ...) -> ScenarioSpec: ...

    spec = REGISTRY.build("quickstart", file_mib=64)
"""

from __future__ import annotations

from typing import List

from repro.registry import FactoryRegistry, RegisteredFactory
from repro.scenarios.spec import ScenarioSpec

__all__ = ["ScenarioRegistry", "REGISTRY"]


class ScenarioRegistry(FactoryRegistry):
    """Name → scenario-factory mapping behind the ``run`` CLI."""

    kind = "scenario"

    def build(self, name: str, **overrides) -> ScenarioSpec:
        """Materialize the named scenario's spec with parameter overrides."""
        return self.get(name).build(**overrides)

    def _describe_built(self, entry: RegisteredFactory) -> List[str]:
        return ["", entry.build().describe()]


#: The process-wide default registry; built-in scenarios self-register here
#: on ``import repro.scenarios``.
REGISTRY = ScenarioRegistry()
