"""Multivariate Newton interpolation in downward-closed polynomial spaces
on non-tensorial unisolvent grids, with Leja-ordered nodes, fast evaluation
and differentiation, Lagrange-basis tools, Lebesgue-constant estimation,
and a convergence-rate benchmark harness.

The package exports each library module's ``__all__``; a public name is
listed there and nowhere else.
"""

from . import multi_index, grid, newton, analysis
from .multi_index import *  # noqa: F403
from .grid import *  # noqa: F403
from .newton import *  # noqa: F403
from .analysis import *  # noqa: F403

__version__ = "0.1.0"

__all__ = multi_index.__all__ + grid.__all__ + newton.__all__ + analysis.__all__
