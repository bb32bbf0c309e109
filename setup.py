"""Build script: compiles the optional Groebner accelerator extension.

The package is fully functional without the extension (a pure-Python
backend is selected at import time), so compilation failures only
cost speed, never correctness.  The extension is one hand-written C
source, ``src/godeaux/_kernel.c``; a C compiler is all a build needs.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Build the accelerator if possible; warn and continue otherwise."""

    def run(self):
        try:
            super().run()
        except Exception as exc:
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        import warnings

        warnings.warn(
            "compiled kernel unavailable, falling back to the pure-Python "
            f"backend: {exc}"
        )


setup(ext_modules=[Extension("godeaux._kernel", ["src/godeaux/_kernel.c"])],
      cmdclass={"build_ext": OptionalBuildExt})
