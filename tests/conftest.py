"""Shared session-scoped artifacts for the test suite.

The full verification run, the mutation sweep, and the randomized
property campaigns are each executed once per session and shared across
test modules (including the acceptance gate).

Before anything imports ``godeaux``, the compiled kernel is made
importable so that the tests compare both backends.  An extension
already built next to the package (an install, or an in-place build) is
used as it is.  Otherwise ``kernel_build.build`` compiles the
hand-written ``src/godeaux/_kernel.c`` into ``tests/.build`` with the
interpreter's own compiler and flags (reused while the source and the
commands are unchanged), and ``kernel_build.KernelFinder`` resolves
``godeaux._kernel`` to that file.  Nothing is written under ``src/``: a
kernel there would be imported by every process, including those that
must run on the pure kernel.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import json
import sys
import time
import warnings
from pathlib import Path

import pytest

import kernel_build

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = Path(__file__).resolve().parent / ".build"


def _has_prebuilt_kernel() -> bool:
    """Whether an extension sits next to the package ``godeaux`` imports."""
    spec = importlib.util.find_spec("godeaux")
    locations = (spec and spec.submodule_search_locations) or ()
    return any((Path(location) / f"_kernel{suffix}").exists()
               for location in locations
               for suffix in importlib.machinery.EXTENSION_SUFFIXES)


def _provide_kernel() -> str:
    """Make the compiled kernel importable; say where it comes from."""
    if _has_prebuilt_kernel():
        return "prebuilt"
    start = time.time()
    try:
        so_path = kernel_build.build(BUILD_DIR)
    except kernel_build.BuildError as exc:
        reason = f"no kernel built from {kernel_build.KERNEL_C}: {exc}"
        warnings.warn(reason)
        return reason
    sys.meta_path.insert(0, kernel_build.KernelFinder(so_path))
    source = kernel_build.KERNEL_C.relative_to(ROOT)
    if so_path.stat().st_mtime < start:
        return f"cached build of {source}"
    return f"built in {time.time() - start:.1f} s from {source}"


KERNEL_ORIGIN = _provide_kernel()

from godeaux import backend  # noqa: E402  (after the kernel is provided)
from godeaux.fixtures import load_fixtures  # noqa: E402
from godeaux.suite import MUTATIONS, PASS, report, run_all  # noqa: E402

import property_helpers  # noqa: E402


def pytest_report_header(config):
    loaded = getattr(backend._compiled, "__file__", None)
    return f"godeaux compiled kernel: {loaded or 'none'} ({KERNEL_ORIGIN})"


@pytest.fixture(scope="session")
def fixtures():
    return load_fixtures()


@pytest.fixture(scope="session")
def suite_results():
    """One full default verification run (seed 1, default budget)."""
    return run_all(seed=1)


@pytest.fixture(scope="session")
def suite_report_json(suite_results):
    return report(suite_results, "json")


@pytest.fixture(scope="session")
def mutation_reports():
    """Mapping mutation name -> JSON report of the run under it."""
    reports = {}
    for mutation in MUTATIONS:
        fx = load_fixtures(mutation.overrides())
        results = run_all(seed=1, budget=2000, fixtures=fx)
        reports[mutation.name] = report(results, "json")
    return reports


@pytest.fixture(scope="session")
def mutation_outcomes(mutation_reports):
    """Mapping mutation name -> list of non-pass check ids under it."""
    return {name: [e["id"] for e in json.loads(text) if e["status"] != PASS]
            for name, text in mutation_reports.items()}


@pytest.fixture(scope="session")
def property_outcomes():
    """Mapping suite name -> (cases run, list of failure descriptions)."""
    return property_helpers.run_all_property_suites()
