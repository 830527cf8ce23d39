"""The public API: every exported name exists and has one home module,
and the package exports exactly the names in its library modules'
``__all__`` lists.  Every memo is made by ``quiver._memo`` and listed in
``quiver._MEMOS``."""

import importlib
import inspect
import json
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import quiverlab

MODULES = [
    importlib.import_module(f"quiverlab.{info.name}")
    for info in pkgutil.iter_modules(quiverlab.__path__)
]
LIBRARY = [m for m in MODULES if m.__name__ != "quiverlab.cli"]


def _package_names():
    # dir() loads the package, which binds its names on first use
    return {
        name
        for name in dir(quiverlab)
        if not name.startswith("_") and not inspect.ismodule(getattr(quiverlab, name))
    }


def test_every_module_all_name_exists():
    for module in MODULES:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_package_names_are_in_their_module_all():
    for name in _package_names():
        value = getattr(quiverlab, name)
        homes = [
            m.__name__ for m in MODULES if name in m.__all__ and getattr(m, name) is value
        ]
        assert homes, f"quiverlab.{name} is in no module's __all__"
        # functions and classes must be exported by the module that defines them
        defined_in = getattr(value, "__module__", None)
        if inspect.isfunction(value) or inspect.isclass(value):
            assert defined_in in homes, f"quiverlab.{name} is not in {defined_in}.__all__"


def test_package_exports_every_library_all_name():
    assert _package_names() == {name for m in LIBRARY for name in m.__all__}


def test_import_loads_nothing_until_a_name_is_used():
    # a child interpreter, so that no test has loaded the library yet
    script = (
        "import json, sys\n"
        "import quiverlab\n"
        "loaded = [m for m in sys.modules if m.startswith('quiverlab.')]\n"
        "star = {}\n"
        "exec('from quiverlab import *', star)\n"
        "heavy = [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
        "print(json.dumps({'loaded': loaded, 'star': sorted(set(star) - {'__builtins__'}),\n"
        "                  'heavy': heavy}))\n"
    )
    src = os.path.dirname(os.path.dirname(quiverlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["loaded"] == []
    assert result["star"] == sorted(name for m in LIBRARY for name in m.__all__)
    # loading every module still loads neither
    assert result["heavy"] == []


def test_every_fields_default_is_the_one_default():
    for module in LIBRARY:
        for name in module.__all__:
            value = getattr(module, name)
            if not inspect.isfunction(value):
                continue
            fields = inspect.signature(value).parameters.get("fields")
            if fields is not None and fields.default is not inspect.Parameter.empty:
                assert fields.default is quiverlab.linalg.DEFAULT_FIELDS, f"{module.__name__}.{name}"


def test_every_memo_is_made_by_memo_and_listed_once(a3, t3, cold):
    from quiverlab.quiver import _MEMOS, _memo, kp_parse, positive_roots

    src = pathlib.Path(quiverlab.__path__[0])
    lines = [line.strip() for path in src.glob("*.py") for line in path.read_text().splitlines()]
    # the package is loaded (conftest imports its names), so every module
    # has run its decorators: one listed memo per @_memo line
    assert len(_MEMOS) == lines.count("@_memo") == 29
    assert len({id(memo) for memo in _MEMOS}) == len(_MEMOS)
    assert not [line for line in lines if re.match(r"@functools\.(cache|lru_cache)\b", line)]
    assert not [line for line in lines if "lru_cache" in line]
    # functools.cache is called in one place, _memo
    assert [line for line in lines if "functools.cache(" in line] == ["memo = functools.cache(fn)"]
    assert "functools.cache(fn)" in inspect.getsource(_memo)
    # the memos fill, and the one clear empties every one of them
    text = "[1,2]+[2,3]+[1,1]"
    kp = kp_parse(t3, text)
    quiverlab.ext_set(kp_parse(t3, "[1,1]"), kp_parse(t3, "[2,3]"), method="subrep")
    assert sum(memo.cache_info().currsize for memo in _MEMOS) > 0
    cold()
    assert [memo for memo in _MEMOS if memo.cache_info().currsize] == []
    # interned values keep their identity across the clear
    assert positive_roots(a3) is t3
    assert kp_parse(t3, text) is kp
