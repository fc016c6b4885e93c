"""randerslab: numerical laboratory for cyclic Randers phase-space flows,
Lipschitz decompositions, concentration-of-measure checks and
center-of-mass equivalence experiments."""

__version__ = "0.1.0"
