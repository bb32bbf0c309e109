"""Shared session-scoped artifacts for the test suite.

The full verification run, the mutation sweep, and the randomized
property campaigns are each executed once per session and shared across
test modules (including the acceptance gate).

Before anything imports ``godeaux``, the compiled kernel is made
importable so that the tests compare both backends.  An extension
already built next to the package (an install, or an in-place build) is
used as it is.  Otherwise ``setup.py build_ext`` compiles the hand-written
``src/godeaux/_kernel.c`` into ``tests/.build`` (reused while the C
source and the interpreter's extension suffix are unchanged), and a
meta-path finder resolves ``godeaux._kernel`` to that file.  Nothing is
written under ``src/``: a kernel there would be imported by every
process, including those that must run on the pure kernel.
"""

from __future__ import annotations

import hashlib
import importlib.abc
import importlib.machinery
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import sysconfig
import time
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
KERNEL_C = ROOT / "src" / "godeaux" / "_kernel.c"
BUILD_DIR = Path(__file__).resolve().parent / ".build"
KERNEL_MODULE = "godeaux._kernel"
EXT_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX")


class KernelFinder(importlib.abc.MetaPathFinder):
    """Resolves ``godeaux._kernel`` to one extension file, nothing else."""

    def __init__(self, so_path: str):
        self.so_path = so_path

    def find_spec(self, fullname, path=None, target=None):
        if fullname != KERNEL_MODULE:
            return None
        loader = importlib.machinery.ExtensionFileLoader(fullname,
                                                         self.so_path)
        return importlib.util.spec_from_file_location(fullname, self.so_path,
                                                      loader=loader)


def _has_prebuilt_kernel() -> bool:
    """Whether an extension sits next to the package ``godeaux`` imports."""
    spec = importlib.util.find_spec("godeaux")
    locations = (spec and spec.submodule_search_locations) or ()
    return any((Path(location) / f"_kernel{suffix}").exists()
               for location in locations
               for suffix in importlib.machinery.EXTENSION_SUFFIXES)


def _build_kernel(so_path: Path) -> str:
    """Compile ``_kernel.c`` with setup.py into ``so_path``; return its log."""
    work = BUILD_DIR / f"tmp-{os.getpid()}"
    try:
        proc = subprocess.run(
            [sys.executable, "setup.py", "build_ext",
             "--build-lib", str(work / "lib"),
             "--build-temp", str(work / "temp")],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        built = work / "lib" / "godeaux" / f"_kernel{EXT_SUFFIX}"
        if built.exists():
            os.replace(built, so_path)
        return proc.stdout
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _provide_kernel() -> str:
    """Make the compiled kernel importable; say where it comes from."""
    if _has_prebuilt_kernel():
        return "prebuilt"
    key = hashlib.sha256(KERNEL_C.read_bytes() + EXT_SUFFIX.encode())
    so_path = BUILD_DIR / f"_kernel-{key.hexdigest()[:16]}{EXT_SUFFIX}"
    if so_path.exists():
        origin = "cached build of"
    else:
        BUILD_DIR.mkdir(exist_ok=True)
        start = time.perf_counter()
        log = _build_kernel(so_path)
        if not so_path.exists():
            tail = "\n".join(log.splitlines()[-30:])
            reason = (f"setup.py build_ext built no kernel from {KERNEL_C}; "
                      f"its output ends:\n{tail}")
            warnings.warn(reason)
            return reason
        for stale in BUILD_DIR.glob(f"_kernel-*{EXT_SUFFIX}"):
            if stale != so_path:
                stale.unlink(missing_ok=True)
        origin = f"built in {time.perf_counter() - start:.1f} s from"
    sys.meta_path.insert(0, KernelFinder(str(so_path)))
    return f"{origin} {KERNEL_C.relative_to(ROOT)}"


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
