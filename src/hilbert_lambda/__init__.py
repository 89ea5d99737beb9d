"""Decide whether a rational polynomial is a Hilbert polynomial and
recover the unique integer partition that generates it.

The partition (a1 >= ... >= ar >= 1) generates

    h(x) = sum over i of C(x + a_i - i, a_i - 1),

binomials read as polynomials in x.  ``recover_delta`` inverts the map
on the integer coefficients a_k = Δ^k p(0) of p in the basis C(x, k):
p is integer-valued exactly when every a_k is an integer, and each round
peels the block of equal parts read off the top nonzero a_k.
``build_hilbert`` peels the same blocks off zeros and negates the sum.
``recover_naive`` inverts the map by bounded enumeration and serves as a
cross-check oracle.
"""

from .calculus import *
from .partition import *
from .polynomial import *
from .recovery import *

__version__ = "0.1.0"

__all__ = [*calculus.__all__, *partition.__all__, *polynomial.__all__, *recovery.__all__]
