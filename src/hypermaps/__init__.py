"""Hypermaps as permutation flag systems.

Partial duality with respect to arbitrary hyperedge subsets, partial-dual
Euler-genus and orientable-genus polynomials by exhaustive enumeration, the
join / bar-amalgamation / subdivision constructions, and an identity
verification suite over all of it.

Diagnostics go to the ``hypermaps`` logger, which is silent unless the
application configures logging.
"""

import logging

# set before the submodules load: genuspoly records it in its results
__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

from .errors import (
    BadCorner,
    CoefficientOverflow,
    CycleFormatError,
    DuplicateLabel,
    DuplicateVertexPick,
    EdgeCapExceeded,
    EdgeDegreeUnsupported,
    HypermapError,
    IotaUnsolvable,
    MissingLabel,
    NotConnected,
    NotOrientable,
    PairLengthMismatch,
    SelfPairedOrbit,
    SizeMismatch,
    UnknownFamily,
)
from .perm import Permutation, format_cycles, parse_cycle_lists, parse_cycles
from .model import CountsBundle, Hypermap, disjoint_union, solve_iota
from .hmf import read_hmf, write_hmf
from .walsh import (
    BipartiteEdge,
    BipartiteMapSpec,
    BipartiteVertex,
    parse_bmf,
    walsh_build,
    write_bmf,
)
from .duality import (
    EdgeSubset,
    SpanningSubCounts,
    check_properties,
    chi_partial_dual_formula,
    dual,
    eps_partial_dual_formula,
    gamma_partial_dual_formula,
    partial_dual,
    spanning_counts,
    spanning_face_count_restricted,
)
from .genuspoly import (
    EngineConfig,
    EnumerationResult,
    GenusPolynomial,
    SpectrumReport,
    enumerate_partial_duals,
    euler_genus_polynomial,
    orientable_genus_polynomial,
    spectrum_report,
    subset_iter,
)
from .constructions import (
    AmalgamationPicks,
    CornerRef,
    add_pendant_vertex,
    bar_amalgamation,
    check_amalgamation_theorem,
    check_construction_theorems,
    check_join_polynomial,
    check_pendant_invariance,
    check_subdivision,
    corner_face_count,
    join,
    parse_corner,
    subdivide3,
)
from .generators import (
    build_oriented,
    closed_form,
    cycle_hypertree,
    example,
    fig7_example,
    is_hypertree,
    ladder,
    ladder_tree,
    plane_example,
    random_hypertree,
    star,
    torus_example,
)
from .verify import fig7_gamma_advisory, verify_bundled, verify_hypermap
