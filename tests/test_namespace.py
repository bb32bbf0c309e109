"""The package namespace resolves lazily, and set-up loads only what it uses.

``import godeaux`` loads no submodule; each public name imports its
defining module on first use.  The set-up of a process (import the
package and the backend selector, load the fixtures) must not load the
suite, the Groebner layer, the numerics, the CLI, a kernel, or the
``dataclasses``/``inspect`` pair.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import godeaux

SRC = Path(__file__).resolve().parent.parent / "src"

NOT_ON_SETUP_PATH = ("godeaux.suite", "godeaux.groebner", "godeaux.numerics",
                     "godeaux.cli", "godeaux._kernel_pure",
                     "dataclasses", "inspect")


def run_child(body: str):
    """JSON printed by ``body`` in a fresh ``python -S`` with ``src`` on
    the path."""
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{body}"
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return json.loads(out)


def test_setup_path_loads_only_what_it_uses():
    loaded = run_child(
        "import json\n"
        "import godeaux\n"
        "from godeaux import backend\n"
        "godeaux.load_fixtures()\n"
        "print(json.dumps(sorted(sys.modules)))\n")
    assert "godeaux.fixtures" in loaded and "godeaux.backend" in loaded
    assert [name for name in NOT_ON_SETUP_PATH if name in loaded] == []


def test_import_loads_no_submodule_and_submodules_still_import():
    before, after = run_child(
        "import json\n"
        "import godeaux\n"
        "before = sorted(m for m in sys.modules if m.startswith('godeaux'))\n"
        "from godeaux import _kernel_pure\n"
        "after = _kernel_pure is sys.modules['godeaux._kernel_pure']\n"
        "print(json.dumps([before, after]))\n")
    assert before == ["godeaux"]
    assert after is True


def test_public_names_are_their_modules_objects():
    for name in godeaux.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(godeaux._MODULE_OF[name])
        value = getattr(godeaux, name)
        assert value is vars(module)[name], name
        # a class or function says where it is defined; constants do not
        assert getattr(value, "__module__", module.__name__) == \
            module.__name__, name


def test_dir_lists_every_public_name():
    assert set(godeaux.__all__) <= set(dir(godeaux))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        godeaux.no_such_name
    assert not hasattr(godeaux, "CheckResults")


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from godeaux import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(godeaux.__all__)
