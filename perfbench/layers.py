"""Attribute a cProfile run's self time to the simulator's layers.

One table, :data:`LAYER_PREFIXES`, maps module-name prefixes under
``repro`` to layers.  Prefixes never nest, so every module under
``src/repro`` matches exactly one of them (``test_perfbench.py`` checks
this).  Package ``__init__`` modules are named ``<package>.__init__`` so
that ``repro.__init__`` does not swallow every other module.

Two pseudo-layers complete the picture: ``builtins`` is self time inside C
functions (cProfile reports them under the file name ``~``), and ``other``
is everything else — the standard library and the benchmark's own code.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Mapping, Tuple

#: module-name prefix → layer.  ``lustre.tbf`` covers the whole token path
#: (TBF scheduler, NRS policy wrapper, token buckets).
LAYER_PREFIXES: Dict[str, str] = {
    "repro.sim": "sim",
    "repro.lustre.oss": "lustre.oss",
    "repro.lustre.tbf": "lustre.tbf",
    "repro.lustre.nrs": "lustre.tbf",
    "repro.lustre.bucket": "lustre.tbf",
    "repro.lustre.ost": "lustre.ost",
    "repro.lustre.client": "lustre.client",
    "repro.lustre.network": "lustre.network",
    "repro.lustre.jobstats": "lustre.jobstats",
    "repro.lustre.rpc": "lustre.rpc",
    "repro.lustre.striping": "lustre.rpc",
    "repro.lustre.__init__": "lustre.rpc",
    "repro.core": "core",
    "repro.faults": "faults",
    "repro.metrics": "metrics",
    "repro.cluster": "cluster",
    "repro.campaigns": "campaigns",
    "repro.scenarios": "scenarios",
    "repro.registry": "scenarios",
    "repro.__init__": "scenarios",
    "repro.workloads": "workloads",
    "repro.analysis": "cli",
    "repro.experiments": "cli",
}

BUILTINS = "builtins"
OTHER = "other"

#: Every layer a share is reported for, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(LAYER_PREFIXES.values())) + (
    BUILTINS,
    OTHER,
)


def module_name(path: Path, package_root: Path) -> str:
    """``repro.x.y`` (``repro.x.__init__`` for packages) of a source file."""
    relative = path.resolve().relative_to(package_root.resolve().parent)
    return ".".join(relative.with_suffix("").parts)


def matching_prefixes(module: str) -> Tuple[str, ...]:
    """Every prefix of :data:`LAYER_PREFIXES` that covers ``module``."""
    return tuple(
        prefix
        for prefix in LAYER_PREFIXES
        if module == prefix or module.startswith(prefix + ".")
    )


class LayerMap:
    """Resolve profiler file names to layers, caching per file name."""

    def __init__(self, package_root: Path) -> None:
        self.package_root = package_root.resolve()
        self._root = str(self.package_root) + "/"
        self._cache: Dict[str, str] = {}

    def layer_of(self, filename: str) -> str:
        layer = self._cache.get(filename)
        if layer is None:
            layer = self._resolve(filename)
            self._cache[filename] = layer
        return layer

    def _resolve(self, filename: str) -> str:
        if filename == "~":
            return BUILTINS
        path = Path(filename).resolve()
        if not str(path).startswith(self._root):
            return OTHER
        prefixes = matching_prefixes(module_name(path, self.package_root))
        return LAYER_PREFIXES[prefixes[0]] if prefixes else OTHER


StatsTable = Mapping[Tuple[str, int, str], Tuple[int, int, float, float, object]]


def self_time_by_layer(stats: StatsTable, layers: LayerMap) -> Dict[str, float]:
    """Seconds of profiled self time per layer (every layer present)."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for (filename, _line, _func), (_cc, _nc, self_s, _cum, _callers) in stats.items():
        totals[layers.layer_of(filename)] += self_s
    return totals


def shares(seconds: Mapping[str, float]) -> Dict[str, float]:
    """Each layer's fraction of the total; sums to 1."""
    total = sum(seconds.values())
    return {layer: value / total for layer, value in seconds.items()}


def call_count(stats: StatsTable, file_suffix: str, func: str) -> int:
    """Total calls to every function ``func`` defined in a file ending in
    ``file_suffix`` (for example ``lustre/nrs.py``, ``poll``)."""
    return sum(
        nc
        for (filename, _line, name), (_cc, nc, _tt, _ct, _callers) in stats.items()
        if name == func and filename.endswith(file_suffix)
    )


def source_modules(package_root: Path) -> Iterable[str]:
    """Module names of every ``.py`` file under ``package_root``."""
    for path in sorted(package_root.rglob("*.py")):
        yield module_name(path, package_root)
