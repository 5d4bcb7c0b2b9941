"""Numerical laboratory for minimal two-spheres in round n-spheres.

Discretizes maps from the two-sphere into S^n, drives them to alpha-energy
critical points by projected pseudogradient descent, measures Morse index
and nullity from second-variation spectra, and checks the combinatorial
side: branched covers, Schubert cell censuses and mod-2 Morse homology.
"""

__version__ = "0.1.0"

from .sphere_mesh import (  # noqa: F401
    FemPencil,
    SphereMesh,
    assemble_pencil,
    build_icosphere,
)
