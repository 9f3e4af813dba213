"""Exact arithmetic for finitely generated subgroups of one-dimensional
algebraic groups over the rationals: elliptic curves in short Weierstrass
form and the unit circle.

Everything is computed in exact rational arithmetic.  Searches are bounded
and say so: "not found below the bound" is reported as Undecided / Unknown,
never as a definite no.
"""

__version__ = "0.1.0"
