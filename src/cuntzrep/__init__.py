"""Exact computation in permutative representations of the two-generator
Cuntz algebra: recursive boson and fermion systems, their shift and cluster
operators, polynomial normal forms, and verification suites."""

from . import basis, operators, parsing, polynorm, scalars, states, suites
from .basis import *
from .operators import *
from .parsing import *
from .polynorm import *
from .scalars import *
from .states import *
from .suites import *

__version__ = "0.1.0"

# The package namespace is the union of the submodules' own exports.
__all__ = [
    *basis.__all__,
    *operators.__all__,
    *parsing.__all__,
    *polynorm.__all__,
    *scalars.__all__,
    *states.__all__,
    *suites.__all__,
    "__version__",
]
