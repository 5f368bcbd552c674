"""tilelab: exact dyadic box geometry and randomized tree tilings."""

from .dyadic import Dyadic
from .boxes import BoxSet, box_of, polyline_neighborhood

__all__ = ["Dyadic", "BoxSet", "box_of", "polyline_neighborhood"]

__version__ = "0.1.0"
