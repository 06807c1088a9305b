"""Bouw-Moller surfaces, cutting sequences, and their renormalization."""

__version__ = "0.1.0"

from .surface import NonPositiveShape, Polygon, Surface, build_surface
from .hooper import HooperDiagram, build_hooper, heights, moduli, widths
from .diagrams import (ArrowAlphabet, NotAdmissible, NotChained,
                       TransitionDiagram, admissible_in, arrow_alphabet,
                       build_D0, build_T0, build_Ti, sector_permutation,
                       t0_grid)
from .tracer import (Crossing, CuttingWord, NotCoAdjacent, VertexHit,
                     realize_periodic, sector_of, start_through, trace)
from .renorm import (derivative_sequence, derive, fixed_point_form, generate,
                     generation_diagram, normalize, pseudo_substitution,
                     substitution, tr_operator, tr_operator_inverse)
from .farey import (BoundaryOrbit, DomainError, Itinerary, NoConvergence,
                    direction_from_itinerary, farey_F, farey_FF, ff_branches,
                    gamma, itinerary, reflection, subsectors)

__all__ = [
    "ArrowAlphabet", "BoundaryOrbit", "Crossing", "CuttingWord",
    "DomainError", "HooperDiagram", "Itinerary",
    "NoConvergence", "NonPositiveShape", "NotAdmissible", "NotChained",
    "NotCoAdjacent", "Polygon", "Surface", "TransitionDiagram", "VertexHit",
    "admissible_in", "arrow_alphabet", "build_D0", "build_T0", "build_Ti",
    "build_hooper", "build_surface", "derivative_sequence", "derive",
    "direction_from_itinerary", "farey_F", "farey_FF", "ff_branches",
    "fixed_point_form", "gamma", "generate", "generation_diagram", "heights",
    "itinerary", "moduli", "normalize", "pseudo_substitution",
    "realize_periodic", "reflection", "sector_of", "sector_permutation",
    "start_through", "subsectors", "substitution", "t0_grid", "tr_operator",
    "tr_operator_inverse", "trace", "widths",
]
