"""The one way the tests build and load the compiled kernel.

``build`` compiles and links the hand-written ``src/godeaux/_kernel.c``
with the running interpreter's own compiler and flags (sysconfig ``CC``,
``CFLAGS``, ``CCSHARED``, include dir and ``LDSHARED``), so a checkout
with only a C compiler builds it: no setuptools is needed.  The
extension is cached in ``out_dir`` under a key made of the source, both
command lines and ``EXT_SUFFIX``, and reused while none of them changes.
``KernelFinder`` makes ``godeaux._kernel`` import from the built file.
"""

from __future__ import annotations

import hashlib
import importlib.abc
import importlib.machinery
import importlib.util
import os
import shlex
import subprocess
import sysconfig
from pathlib import Path

KERNEL_C = Path(__file__).resolve().parents[1] / "src/godeaux/_kernel.c"
EXT_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX")


class BuildError(RuntimeError):
    """A compile or link step failed; the message carries its output."""


def _run(cmd: list[str]) -> None:
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
    except OSError as exc:  # no such compiler, or not executable
        raise BuildError(f"{shlex.join(cmd)} failed: {exc}") from exc
    if proc.returncode:
        raise BuildError(f"{shlex.join(cmd)} failed:\n{proc.stdout}")


def build(out_dir, extra_flags=()) -> Path:
    """The extension file built from ``_kernel.c`` into ``out_dir``, with
    ``extra_flags`` on both the compile and the link.  A new build
    replaces the earlier ones in ``out_dir``."""
    cfg, out_dir = sysconfig.get_config_var, Path(out_dir)
    if not (cfg("CC") and cfg("LDSHARED")):
        raise BuildError("the interpreter names no C compiler or linker "
                         f"(CC={cfg('CC')!r}, LDSHARED={cfg('LDSHARED')!r})")
    compile_cmd = [*shlex.split(cfg("CC")), *shlex.split(cfg("CFLAGS") or ""),
                   *shlex.split(cfg("CCSHARED") or ""),
                   "-I" + sysconfig.get_paths()["include"], *extra_flags]
    link_cmd = [*shlex.split(cfg("LDSHARED")), *extra_flags]
    key = hashlib.sha256(repr((KERNEL_C.read_bytes(), compile_cmd, link_cmd,
                               EXT_SUFFIX)).encode()).hexdigest()[:16]
    so_path = out_dir / f"_kernel-{key}{EXT_SUFFIX}"
    if so_path.exists():
        return so_path
    out_dir.mkdir(parents=True, exist_ok=True)
    obj = out_dir / f"_kernel-{os.getpid()}.o"
    partial = obj.with_suffix(".tmp")
    try:
        _run([*compile_cmd, "-c", str(KERNEL_C), "-o", str(obj)])
        _run([*link_cmd, str(obj), "-o", str(partial)])
        for stale in out_dir.glob(f"_kernel-*{EXT_SUFFIX}"):
            if stale != so_path:
                stale.unlink(missing_ok=True)
        os.replace(partial, so_path)
    finally:
        obj.unlink(missing_ok=True)
        partial.unlink(missing_ok=True)
    return so_path


class KernelFinder(importlib.abc.MetaPathFinder):
    """Resolves ``godeaux._kernel`` to one extension file, nothing else."""

    def __init__(self, so_path):
        self.so_path = str(so_path)

    def find_spec(self, fullname, path=None, target=None):
        if fullname != "godeaux._kernel":
            return None
        loader = importlib.machinery.ExtensionFileLoader(fullname,
                                                         self.so_path)
        return importlib.util.spec_from_file_location(fullname, self.so_path,
                                                      loader=loader)
