"""Exact computations for representations of Dynkin quivers.

Everything is exact: representations live over small prime fields,
hom/ext dimensions come from closed formulas on root enumerations, and
Grassmannians of subrepresentations are enumerated point by point.  On
top of that sit the degeneration order, extension sets with generic
extensions, component labels of quiver Grassmannians, the repetition
quiver with its pairing calculus, and the decision procedures for
induction products of simple modules.

The package re-exports every name in each library module's ``__all__``
(``quiverlab.cli``, the executable, is not imported), so those lists are
the one declaration of the public API.
"""

from .extensions import *
from .grassmannian import *
from .homs import *
from .klr import *
from .linalg import *
from .order import *
from .quiver import *
from .repetition import *
from .reps import *

__version__ = "0.1.0"
