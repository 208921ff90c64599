"""Signed infinities for degrees and multiplicities.

``INF`` is the multiplicity of the zero polynomial, the intersection
number of curves sharing a component and the lct off the curve;
``NEG_INF`` is the degree of the zero polynomial.  They are the float
infinities, which compare exactly with integers and ``Fraction``s of any
size.  A test ``value is INF`` stays valid because every function that
answers infinity returns one of these two objects, never a float
computed from them.
"""

import math

INF = math.inf
NEG_INF = -math.inf
