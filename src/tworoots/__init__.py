"""Exact arithmetic for 2-roots of simply laced Weyl groups."""

from . import diagram as _diagram, orbits as _orbits, roots as _roots
from . import symsquare as _symsquare

from .diagram import (Diagram, TypeClass, classify, h_graph, component_count,
                      parabolic_restrict, path_diagram, y_diagram)
from .roots import (ElementaryRoot, EpsilonForm, bform, delta, elementary_roots,
                    epsilon_coords, eta, height, positive_roots, reflect,
                    simple_root, theta)
from .symsquare import (CanonicalBasis, canonical_basis, components,
                        m_functional, sign_coherent, vee)

__all__ = [
    "Diagram", "TypeClass", "classify", "h_graph", "component_count",
    "parabolic_restrict", "path_diagram", "y_diagram",
    "ElementaryRoot", "EpsilonForm", "bform", "delta", "elementary_roots",
    "epsilon_coords", "eta", "height", "positive_roots", "reflect",
    "simple_root", "theta",
    "CanonicalBasis", "canonical_basis", "components", "m_functional",
    "sign_coherent", "vee", "clear_caches",
]


def clear_caches() -> None:
    """Empty every module-level cache (roots, neighbours, reflection
    matrices, canonical bases and orbit tables), so the next call of each
    computes from scratch."""
    for cache in (_roots._POSITIVE_CACHE, _roots._POSITIVE_SET,
                  _diagram._NEIGHBORS, _symsquare._SIMPLE_MATRICES,
                  _symsquare._BASIS_CACHE, _orbits._TABLE_CACHE):
        cache.clear()
