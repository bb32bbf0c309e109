"""Child process for the benchmark: one fresh interpreter per request.

Usage:
    python3 perfbench/launch.py [--so PATH] setup
    python3 perfbench/launch.py [--so PATH] [--trace FILE --request ID] \
        cli verify --format json --seed S

``--so`` loads the compiled kernel from a build outside the source tree
(see ``build.py``); without it ``godeaux._kernel`` cannot be imported and
the package runs on its pure kernel, as a compiler-less install does.
``setup`` imports the package and loads the fixtures, then exits; the
parent times it as the set-up cost.  ``cli`` runs ``godeaux.cli.main``;
with ``--trace`` the calls into each layer are recorded and written to
FILE as JSON when the command ends.
"""

from __future__ import annotations

import importlib.abc
import importlib.machinery
import importlib.util
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
KERNEL_MODULE = "godeaux._kernel"


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


def prepare(so_path: str | None) -> None:
    """Put the source tree on the path and, if given, the kernel build."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if so_path:
        sys.meta_path.insert(0, KernelFinder(so_path))


def check_backend(so_path: str | None) -> None:
    """Fail unless the compiled kernel is exactly the requested build."""
    from godeaux import backend

    loaded = getattr(backend._compiled, "__file__", None)
    if so_path and loaded != so_path:
        raise SystemExit(f"compiled kernel not loaded from {so_path} "
                         f"(got {loaded})")


def main(argv: list[str]) -> int:
    so_path = trace_file = request = None
    while argv and argv[0].startswith("--"):
        flag, value, argv = argv[0], argv[1], argv[2:]
        if flag == "--so":
            so_path = value
        elif flag == "--trace":
            trace_file = value
        elif flag == "--request":
            request = value
        else:
            raise SystemExit(f"unknown flag {flag}")
    prepare(so_path)
    mode, args = argv[0], argv[1:]
    import godeaux

    check_backend(so_path)
    if mode == "setup":
        godeaux.load_fixtures()
        return 0
    if mode != "cli":
        raise SystemExit(f"unknown mode {mode!r}")
    import godeaux.cli

    if trace_file is None:
        return godeaux.cli.main(args)
    import tracing

    tracer = tracing.Tracer()
    tracer.request = request
    tracer.install()
    try:
        code = godeaux.cli.main(args)
    finally:
        tracer.restore()
        tracer.dump(trace_file)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
