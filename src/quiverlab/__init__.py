"""Exact computations for representations of Dynkin quivers.

Everything is exact: representations live over small prime fields,
hom/ext dimensions come from closed formulas on root enumerations, and
Grassmannians of subrepresentations are enumerated point by point.  On
top of that sit the degeneration order, extension sets with generic
extensions, component labels of quiver Grassmannians, the repetition
quiver with its pairing calculus, and the decision procedures for
induction products of simple modules.

The package exports every name in each library module's ``__all__``
(``quiverlab.cli``, the executable, is left out), so those lists are
the one declaration of the public API.  The names load on first use:
``import quiverlab`` imports no library module, and the first access
to a public name, to ``__all__`` or to ``dir(quiverlab)`` imports all
of them and binds their names here.  So ``import quiverlab.cli`` loads
only ``quiver`` and ``linalg``, and each subcommand imports the modules
it runs.
"""

import importlib

__version__ = "0.1.0"

_LIBRARY = (
    "extensions",
    "grassmannian",
    "homs",
    "klr",
    "linalg",
    "order",
    "quiver",
    "repetition",
    "reps",
)


def _load() -> None:
    """Import every library module, bind its ``__all__`` names here and
    drop the hooks below, so the package is then as if loaded eagerly."""
    names = []
    for module_name in _LIBRARY:
        module = importlib.import_module(f"{__name__}.{module_name}")
        for name in module.__all__:
            globals()[name] = getattr(module, name)
        names += module.__all__
    globals()["__all__"] = names
    # the interpreter does not specialise attribute reads on a module that
    # has __getattr__, so a hot ``quiverlab.name`` would stay slower
    globals().pop("__getattr__", None)
    globals().pop("__dir__", None)


def __getattr__(name: str):
    # the import system probes a submodule's name (``from . import linalg``)
    # before it imports the submodule, which must not load the library
    if name in _LIBRARY or name == "cli":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    _load()
    return sorted(globals())
