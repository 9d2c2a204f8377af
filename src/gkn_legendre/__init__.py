"""Exact-arithmetic GKN boundary-condition engine for powers of the Legendre operator.

The namespace is the union of the engine modules' ``__all__``; ``verify`` and
``cli`` stay submodules.
"""

__version__ = "0.1.0"  # bound before the imports: ``sweep`` reads it from the package

from . import brackets, classical, exactnum, matrices, oracle, sweep
from .exactnum import *
from .classical import *
from .brackets import *
from .matrices import *
from .oracle import *
from .sweep import *

__all__ = ["__version__"] + [
    name for module in (exactnum, classical, brackets, matrices, oracle, sweep) for name in module.__all__
]
