"""Hypothesis profiles, and the benchmark workloads shared by the digest tests.

``HYPOTHESIS_PROFILE=ci`` draws the same examples on every run and prints
a reproduction blob with each failure, so a failure in CI replays locally
with ``@reproduce_failure``. Per-test settings still override the profile.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def workloads(tmp_path_factory):
    """The three pipebench workloads at seeds 1 and 3, keyed by (name, seed),
    generated once per session by the benchmark's own generators (imported
    from ``pipebench/workloads.py``, never changed here)."""
    spec = importlib.util.spec_from_file_location("pipebench_workloads", ROOT / "pipebench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # Registered before it runs: its dataclasses look their module up.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        root = tmp_path_factory.mktemp("workloads")
        return {
            (name, seed): module.generate(name, root / f"{name}.{seed}", seed)
            for name in ("xlsx_formulas", "range_fill", "json_corpus")
            for seed in (1, 3)
        }
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="session")
def workload_files(workloads):
    """(label, path) of every workbook of ``workloads``. Labels are
    ``<workload>/<seed>/<file name>``, in sorted order."""
    return [
        (f"{name}/{seed}/{path.name}", path)
        for (name, seed), workload in workloads.items()
        for path in sorted(workload.directory.iterdir())
    ]
