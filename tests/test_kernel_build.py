"""Building the hand-written compiled kernel.

``src/godeaux/_kernel.c`` is built with the interpreter's own compiler
and flags plus ``-Wall -Werror``, so a change that adds a compiler
warning fails here rather than in a later build.  And ``setup.py`` keeps
the extension optional: without a working compiler it warns and builds
nothing, and the package still installs on the pure kernel.  Last, the
kernel runs its campaigns under AddressSanitizer and UBSan (Serebryany et
al., "AddressSanitizer: a fast address sanity checker", USENIX ATC 2012),
which catch a stray read or write even where the answer comes out right.
"""

import importlib.util
import json
import os
import shlex
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from kernel_build import EXT_SUFFIX, KERNEL_C, BuildError, build

# The interpreter's CFLAGS carry -fwrapv, which hides signed overflow
# from UBSan; -fno-wrapv after them turns the check back on.
SANITIZE = ("-O1", "-g", "-fno-wrapv", "-fsanitize=address,undefined",
            "-fno-sanitize-recover=undefined")
# Campaigns only, no test modules: test_compiled_kernel_is_interruptible
# caps the address space below what ASan's shadow memory needs.
CAMPAIGNS = ("cross_backend_mirror", "tracked_mirror", "boundary_mirror",
             "packed_encoding")

# Loads the kernel from argv[1] and prints, as JSON, the checks of a
# compiled run_all(seed=1) that did not pass and each campaign's failures.
_SANITIZED_CHILD = """
import json, sys
from kernel_build import KernelFinder

sys.meta_path.insert(0, KernelFinder(sys.argv[1]))
from godeaux import backend
from godeaux.suite import PASS, run_all
import property_helpers

assert backend._compiled.__file__ == sys.argv[1], backend._compiled
failures = {name: property_helpers.SUITES[name]()[1] for name in sys.argv[2:]}
failures["run_all"] = [r.id for r in run_all(seed=1) if r.status != PASS]
print(json.dumps(failures))
"""


def test_kernel_c_compiles_without_warnings(tmp_path):
    assert build(tmp_path, ("-Wall", "-Werror")).exists()


@pytest.mark.parametrize("cc", ["/nonexistent/cc", None])
def test_build_without_a_compiler_raises_build_error(tmp_path, monkeypatch,
                                                     cc):
    # conftest falls back to the pure kernel on BuildError only.
    config_var = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: cc if name == "CC" else config_var(name))
    with pytest.raises(BuildError):
        build(tmp_path)
    assert not list(tmp_path.iterdir())


def test_setup_without_a_compiler_warns_and_builds_nothing(tmp_path):
    if importlib.util.find_spec("setuptools") is None:
        pytest.skip("setuptools cannot be imported")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib",
         str(tmp_path / "lib"), "--build-temp", str(tmp_path / "temp")],
        cwd=KERNEL_C.parents[2], env=dict(os.environ, CC="false"),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    assert proc.returncode == 0, proc.stdout
    assert "godeaux._kernel" in proc.stdout, proc.stdout
    assert "warning" in proc.stdout.lower(), proc.stdout
    assert not list(tmp_path.rglob(f"*{EXT_SUFFIX}"))


def test_kernel_runs_clean_under_sanitizers():
    # ASan's runtime must be the first library the interpreter loads.  The
    # build is cached next to the default one, keyed by its flags.
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    try:
        libasan = subprocess.run([*cc, "-print-file-name=libasan.so"],
                                 capture_output=True, text=True).stdout.strip()
    except OSError as exc:
        pytest.skip(f"cannot run the compiler {shlex.join(cc)!r}: {exc}")
    if not os.path.isfile(libasan):
        pytest.skip(f"{shlex.join(cc)} resolves libasan.so to no file "
                    f"({libasan!r})")
    tests = Path(__file__).resolve().parent
    so_path = build(tests / ".build" / "sanitized", SANITIZE)
    env = dict(os.environ, LD_PRELOAD=libasan, ASAN_OPTIONS="detect_leaks=0",
               PYTHONPATH=os.pathsep.join([str(KERNEL_C.parents[1]),
                                           str(tests)]))
    proc = subprocess.run(
        [sys.executable, "-c", _SANITIZED_CHILD, str(so_path), *CAMPAIGNS],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert json.loads(proc.stdout) == dict.fromkeys([*CAMPAIGNS, "run_all"],
                                                    [])
