"""Build script: compiles the optional Groebner accelerator extension.

The package is fully functional without the extension (a pure-Python
backend is selected at import time), so compilation failures only
cost speed, never correctness: the extension is ``optional``, and a
build that fails prints a warning and installs the package without it.
The extension is one hand-written C source, ``src/godeaux/_kernel.c``;
a C compiler is all a build needs.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("godeaux._kernel", ["src/godeaux/_kernel.c"],
                             optional=True)])
