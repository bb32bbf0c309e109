"""Groebner-kernel backend selection.

Two interchangeable kernels ship with the package; each loads on first
use, not at ``import godeaux``:

* ``godeaux._kernel_pure`` — the pure-Python reference, always available,
  imported by the first ``get("pure")``;
* ``godeaux._kernel`` — a hand-written C extension with identical
  semantics (same pair selection, pruning, reduction rule, budget
  behaviour, and canonical output), built at install time when a C
  compiler exists, and probed when this module is imported.

The environment variable ``GODEAUX_BACKEND`` picks the default:
``pure`` forces the reference kernel, ``compiled`` demands the
extension (raising if it is missing), and ``auto`` (or unset) prefers
the extension when importable.  Only the extension knows its limits:
it raises OverflowError for more than ``MAX_VARS`` variables, a modulus
of at least ``MAX_COEFF_MODULUS``, or a monomial field past
``MAX_FIELD`` (at the inputs or mid-run), and ``groebner`` reruns that
call on the pure kernel.
"""

from __future__ import annotations

import os

try:  # pragma: no cover - depends on the build environment
    from . import _kernel as _compiled
except ImportError:  # pragma: no cover
    _compiled = None


def available_backends() -> tuple[str, ...]:
    """Names of the kernels importable in this installation."""
    if _compiled is None:
        return ("pure",)
    return ("pure", "compiled")


def selected_name() -> str:
    """The backend the current environment resolves to."""
    choice = os.environ.get("GODEAUX_BACKEND", "auto").strip().lower()
    if choice not in ("auto", "pure", "compiled"):
        raise ValueError(
            f"GODEAUX_BACKEND must be auto, pure, or compiled; got {choice!r}")
    if choice == "pure":
        return "pure"
    if choice == "compiled":
        if _compiled is None:
            raise ImportError(
                "GODEAUX_BACKEND=compiled but the extension is not built")
        return "compiled"
    return "compiled" if _compiled is not None else "pure"


def get(name: str | None = None):
    """The kernel module for ``name`` (or the selected default)."""
    if name is None:
        name = selected_name()
    if name == "pure":
        from . import _kernel_pure
        return _kernel_pure
    if name == "compiled":
        if _compiled is None:
            raise ImportError("compiled kernel requested but not built")
        return _compiled
    raise ValueError(f"unknown backend {name!r}")

