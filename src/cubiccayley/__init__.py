"""Planar cubic Cayley graphs of connectivity two.

Construction, structural analysis, consistent spin embeddings,
classification and rendering for the nine presentation families, with
independent brute-force verification on finite balls.
"""

from .ball import (CayleyBall, Edge, RawGraph, certify_ball, make_ball,
                   rooted_isomorphic)
from .classify import (ClassificationReport, classify_ball,
                       classify_presentation, finite_case_report,
                       nonplanar_screen)
from .construct import (TYPE_IDS, TypeParams, construct,
                        construct_presentation_ball, cross_check)
from .errors import CubicCayleyError
from .presentation import (Presentation, Word, free_reduce,
                           parse_presentation, relator_multiset_normal_form)

__version__ = "0.1.0"

__all__ = [
    "CayleyBall", "Edge", "RawGraph", "certify_ball", "make_ball",
    "rooted_isomorphic",
    "ClassificationReport", "classify_ball", "classify_presentation",
    "finite_case_report", "nonplanar_screen",
    "TYPE_IDS", "TypeParams", "construct", "construct_presentation_ball",
    "cross_check", "CubicCayleyError",
    "Presentation", "Word", "free_reduce", "parse_presentation",
    "relator_multiset_normal_form",
    "__version__",
]
