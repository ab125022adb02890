"""Exact Green's functions of explicit one-step schemes and their bounds.

The package computes G^n, the n-th convolution power of a finitely
supported stencil, by direct convolution and by an exact windowed FFT
route, and verifies its generalized-Gaussian envelopes, the explicit
oscillatory approximation, the l1 growth law l1(G^n) ~ ell * n**(1/8), and
uniform sup-norm bounds for data of bounded variation.
"""

from . import analysis, approx, green, stencil
from .stencil import *
from .green import *
from .approx import *
from .analysis import *

__all__ = stencil.__all__ + green.__all__ + approx.__all__ + analysis.__all__
