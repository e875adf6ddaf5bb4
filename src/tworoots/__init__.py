"""Exact arithmetic for 2-roots of simply laced Weyl groups."""

import sys

from . import orbits  # noqa: F401  -- so that import tworoots loads it
from .diagram import (Diagram, TypeClass, classify, h_graph, component_count,
                      parabolic_restrict, path_diagram, y_diagram)
from .roots import (EpsilonForm, bform, delta, elementary_roots,
                    epsilon_coords, eta, height, positive_roots, reflect,
                    simple_root, theta)
from .symsquare import (CanonicalBasis, canonical_basis, components,
                        m_functional, sign_coherent, vee)

__all__ = [
    "Diagram", "TypeClass", "classify", "h_graph", "component_count",
    "parabolic_restrict", "path_diagram", "y_diagram",
    "EpsilonForm", "bform", "delta", "elementary_roots",
    "epsilon_coords", "eta", "height", "positive_roots", "reflect",
    "simple_root", "theta",
    "CanonicalBasis", "canonical_basis", "components", "m_functional",
    "sign_coherent", "vee", "clear_caches",
]


def clear_caches() -> None:
    """Empty every functools cache in the package's loaded modules (roots,
    neighbours, reflection matrices, canonical bases, orbit tables, walks
    of Weyl groups, and any cache added later), so the next call of each
    computes from scratch.  Each cached function reports its hits and
    misses through cache_info()."""
    for name, module in list(sys.modules.items()):
        if name.startswith(__name__ + "."):
            for f in vars(module).values():
                if hasattr(f, "cache_clear"):
                    f.cache_clear()
