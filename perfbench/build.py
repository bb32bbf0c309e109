"""Build the compiled Groebner kernel outside the source tree.

The extension is compiled from the tree's ``src/godeaux/_kernel.c`` with
the running interpreter's sysconfig compiler and flags, into
``perfbench/.build``.  When Cython can be imported, ``_kernel.pyx`` is
cythonized into the build directory first and that C file is compiled
instead.  Nothing is written under ``src/``.  A build is reused while the
C source and the command line are unchanged.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import shlex
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

from launch import SRC

BUILD_DIR = Path(__file__).resolve().parent / ".build"
KERNEL_DIR = SRC / "godeaux"


class BuildError(RuntimeError):
    pass


def _run(cmd: list[str]) -> None:
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        raise BuildError(f"{shlex.join(cmd)} failed:\n{proc.stdout[-4000:]}")


def _c_source() -> tuple[Path, str]:
    pyx = KERNEL_DIR / "_kernel.pyx"
    if importlib.util.find_spec("Cython") is not None and pyx.exists():
        BUILD_DIR.mkdir(parents=True, exist_ok=True)
        out = BUILD_DIR / "_kernel_cython.c"
        _run([sys.executable, "-m", "cython", "-3", str(pyx), "-o", str(out)])
        return out, "_kernel.pyx (cythonized)"
    c_file = KERNEL_DIR / "_kernel.c"
    if not c_file.exists():
        raise BuildError(f"no kernel source: {c_file} is missing")
    return c_file, "_kernel.c"


def build_kernel() -> dict:
    """Compile (or reuse) the extension; return its path and build record."""
    source, origin = _c_source()
    digest = hashlib.sha256(source.read_bytes()).hexdigest()
    cfg = sysconfig.get_config_var
    compiler = shlex.split(cfg("CC"))
    flags = (shlex.split(cfg("CFLAGS") or "") + shlex.split(cfg("CCSHARED") or "")
             + ["-I" + sysconfig.get_paths()["include"]])
    linker = shlex.split(cfg("LDSHARED"))
    key = hashlib.sha256(json.dumps([digest, compiler, flags, linker])
                         .encode()).hexdigest()[:16]
    so_path = BUILD_DIR / f"_kernel-{key}{cfg('EXT_SUFFIX')}"
    record = {"so": str(so_path), "source": origin, "kernel_c_sha256": digest,
              "compiler": shlex.join(compiler), "flags": shlex.join(flags),
              "linker": shlex.join(linker), "build_s": 0.0, "reused": True}
    if so_path.exists():
        return record
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    obj = BUILD_DIR / f"_kernel-{key}.o"
    partial = so_path.with_name(so_path.name + f".{os.getpid()}.tmp")
    start = time.perf_counter()
    _run(compiler + flags + ["-c", str(source), "-o", str(obj)])
    _run(linker + [str(obj), "-o", str(partial)])
    os.replace(partial, so_path)
    obj.unlink()
    record.update(build_s=time.perf_counter() - start, reused=False)
    return record
