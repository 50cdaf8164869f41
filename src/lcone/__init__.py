"""Exact classification of lattice Delaunay subdivisions and
Dirichlet-Voronoi polytopes via secondary cones."""

__version__ = "0.2.0"

from .exact import Mat, Rat, SymMat, format_form, parse_form          # noqa: F401
from .lattice import characteristic_set, closest_vectors             # noqa: F401
from .delaunay import delaunay_star, is_triangulation                 # noqa: F401
from .scone import secondary_cone                                     # noqa: F401
from .polyhedral import dv_polytope                                   # noqa: F401
from .equiv import automorphism_group, form_certificate, form_equivalence  # noqa: F401
from .classify import classify_all, enumerate_primitive, mass_check   # noqa: F401
