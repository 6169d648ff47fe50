"""Exact bigraded Hodge theory on invariant-form complexes.

The package expands structure equations of a complex nilmanifold or torus
into the finite-dimensional complex of invariant (p,q)-forms, equips it with
a Hermitian metric, and computes Bott-Chern, Aeppli, Dolbeault, del and
de Rham cohomology together with the full family of associated Laplacians,
their harmonic spaces and spectra.  Finite Galois coverings of flat tori are
modelled by Fourier truncation, giving genuinely positive spectra and
rational von Neumann dimensions.

Dimensions and ranks are always computed over exact Gaussian-rational
arithmetic; floating point is used only for eigenvalues, and the two
backends are cross-checked against each other.
"""

from abch.scalars import QQi
from abch.model import ComplexModel, parse_model, render_model, load_model
from abch.complexes import BigradedComplex, build_complex
from abch.metric import HermitianMetric, identity_metric, load_metric

__all__ = [
    "QQi",
    "ComplexModel",
    "parse_model",
    "render_model",
    "load_model",
    "BigradedComplex",
    "build_complex",
    "HermitianMetric",
    "identity_metric",
    "load_metric",
]

__version__ = "0.1.0"
