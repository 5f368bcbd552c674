"""tilelab: exact dyadic box geometry and randomized tree tilings."""

__version__ = "0.1.0"
