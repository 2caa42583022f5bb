"""Package-level surface tests: public API, version, examples run."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_version_exposed():
    import repro

    assert repro.__version__ == "1.0.0"


def test_public_api_importable():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_simulation_path_imports_without_numpy():
    """Building and running a scenario does not load numpy; only the
    metric timelines, stochastic streams and figure experiments import it,
    at their use sites."""
    code = (
        "import sys\n"
        "import repro.cluster.builder, repro.cluster.experiment\n"
        "import repro.scenarios, repro.campaigns, repro.metrics.summary\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_init_docstring_example_runs():
    """The quickstart in the package docstring must stay true."""
    from repro.scenarios import REGISTRY, run_scenario

    result = run_scenario(REGISTRY.build("quickstart", file_mib=16.0))
    assert result.summary.aggregate_mib_s > 0


@pytest.mark.parametrize(
    "path",
    sorted(EXAMPLES.glob("*.py")) + sorted(BENCHMARKS.glob("*.py")),
    ids=lambda path: f"{path.parent.name}/{path.name}",
)
def test_example_and_benchmark_modules_import(path, monkeypatch):
    """Every example and benchmark module imports against the current API.

    Modules run under a non-``__main__`` name, so only their imports and
    module-level definitions execute; a removed or renamed API fails here
    even for benchmarks no CI step runs.
    """
    monkeypatch.syspath_prepend(str(path.parent))
    runpy.run_path(str(path), run_name="import_check")


@pytest.mark.parametrize(
    "script", ["quickstart.py", "custom_resource.py"]
)
def test_example_scripts_execute(script):
    """The fast examples run end-to-end as real subprocesses."""
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_subpackages_have_docstrings():
    """Every public module documents itself (deliverable e)."""
    import importlib
    import pkgutil

    import repro

    for module_info in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    ):
        if module_info.name.endswith("__main__"):
            continue
        module = importlib.import_module(module_info.name)
        assert module.__doc__, f"{module_info.name} lacks a docstring"
