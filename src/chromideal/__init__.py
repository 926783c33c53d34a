"""Exact algebra for graph k-coloring.

Builds the coloring ideal of a graph (vertex generators x_i^k - 1, edge
generators sum x_i^l x_j^(k-1-l)), computes its Groebner basis in one pass
over a perfect elimination order for chordal graphs, counts and extracts
colorings from the basis, and searches for minimal-degree certificates of
non-k-colorability over prime fields by exact linear algebra.
"""

from .certificates import (
    Certificate,
    InvalidCertificate,
    LinearSystem,
    admissible_degrees,
    assemble_system,
    lift_certificate,
    search_certificate,
    solve_system,
    verify_certificate,
)
from .chordal import (
    BasisResult,
    ChordalBasis,
    basis_polynomial,
    build_groebner_basis,
    count_colorings_chordal,
    elimination_term_order,
    extract_coloring,
    quotient_dimension,
)
from .fields import (
    GF,
    QQ,
    PrimeField,
    RationalField,
    RootsUnavailable,
    is_prime,
    kth_roots_of_unity,
)
from .graphs import (
    EliminationRecord,
    Graph,
    NotChordalError,
    ParseError,
    complete_graph,
    find_clique,
    load_graph,
    parse_dimacs,
    parse_edge_list,
    perfect_elimination_order,
    random_chordal,
)
from .ideals import (
    CharacteristicDividesK,
    ColoringIdeal,
    build_ideal,
    check_coloring,
    mk_edge_poly,
    mk_vertex_poly,
    quotient_reduce,
)
from .oracle import (
    OracleTooLarge,
    brute_force_colorings,
    buchberger_criterion,
)
from .poly import (
    FieldMismatchError,
    Monomial,
    Polynomial,
    TermOrder,
    ZeroPolynomialError,
    complete_homogeneous,
    normal_form,
    parse_poly,
    render,
    s_polynomial,
)

__version__ = "0.1.0"
