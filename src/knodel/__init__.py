"""Domination in Knödel graphs: constructions, exact solving, enumeration."""

from .domination import *
from .gamma4 import *
from .graphs import *
from .sequences import *
from .solver import *

__version__ = "0.1.0"

__all__ = (
    domination.__all__
    + gamma4.__all__
    + graphs.__all__
    + sequences.__all__
    + solver.__all__
)
