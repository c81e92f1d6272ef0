"""Numerical toolkit for model spaces and truncated Toeplitz operators.

The package builds finite-dimensional model spaces from finite Blaschke
products, assembles compressed-multiplication matrices from rational
symbols, constructs the multipliers and invertible factors that transport
operators between spaces, and verifies every identity numerically:
equivalence and unitary equivalence, complex selfadjointness, kernel
formulas on model-space complements, and triangular Wiener-Hopf inverses.

All values are immutable after construction and every operation is a pure
function, so the library is safe to call concurrently.

Each module's ``__all__`` is its list of public names, and the package
exports the union of those of the seven modules below.
"""

from . import blaschke, dual, modelspace, operators, rational, verify, wienerhopf
from .blaschke import *  # noqa: F401,F403
from .dual import *  # noqa: F401,F403
from .modelspace import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .rational import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403
from .wienerhopf import *  # noqa: F401,F403

_MODULES = (blaschke, dual, modelspace, operators, rational, verify, wienerhopf)
__all__ = [name for module in _MODULES for name in module.__all__]

__version__ = "0.1.0"
