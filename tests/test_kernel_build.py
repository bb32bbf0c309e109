"""The hand-written compiled kernel builds warning-free.

``src/godeaux/_kernel.c`` is compiled to an object file with the
interpreter's own compiler and flags plus ``-Wall -Werror``, so a change
that adds a compiler warning fails here rather than in a later build.
"""

import shlex
import subprocess
import sysconfig
from pathlib import Path

KERNEL_C = Path(__file__).resolve().parent.parent / "src" / "godeaux" / "_kernel.c"


def test_kernel_c_compiles_without_warnings(tmp_path):
    cfg = sysconfig.get_config_var
    cmd = (shlex.split(cfg("CC")) + shlex.split(cfg("CFLAGS") or "")
           + shlex.split(cfg("CCSHARED") or "")
           + ["-Wall", "-Werror", "-I" + sysconfig.get_paths()["include"],
              "-c", str(KERNEL_C), "-o", str(tmp_path / "_kernel.o")])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    assert proc.returncode == 0, f"{shlex.join(cmd)} failed:\n{proc.stdout}"
