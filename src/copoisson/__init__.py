"""Exact computation with Poisson and co-Poisson structures on polynomial
Hopf algebras, plus a finite-dimensional classifier and a small CLI."""

from .algebra import (
    DegreeBoundError,
    DimensionMismatchError,
    Monomial,
    Poly,
    Tensor2,
    Tensor3,
    binomial,
    cyclic_sum,
    factorial,
    format_monomial,
    format_poly,
    format_tensor,
    grlex_key,
    monomials,
    splittings,
    t2_swap,
    t3_cycle,
)
from .hopf import (
    PMap,
    QMap,
    antipode,
    cocommutator,
    comult,
    comult_poly,
    counit,
    i_from_q,
    j_from_p,
    p_from_j,
    q_from_i,
)
from .structures import (
    BracketTable,
    ITable,
    SkewMatrix,
    StructConsts,
    copoisson_from_series,
    itable_from_consts,
    linear_poisson,
    make_copoisson,
    poisson_bracket,
    series_from_copoisson,
    tensor_poisson,
)
from .checks import (
    CheckReport,
    check_antipode_coanti,
    check_cojacobi,
    check_cojacobi_coeffs,
    check_coleibniz,
    check_counit_kill,
    check_delta_derivation,
    check_dual_of_abcd,
    check_eps_s_morphisms,
    check_jacobi,
    check_linear_relations,
    check_poisson_hopf_compat,
    check_skew,
    check_support_condition,
    cojacobi_affordable_degree,
    in_skew_generator_space,
)
from .dual import dual_bracket, pairing, verify_main5_roundtrip
from .finite import (
    FinHopf,
    LinearFamily,
    group_algebra_z2,
    quadratic_residual_family,
    solve_copoisson_family,
    solve_poisson_family,
    sweedler_h4,
)
from .parser import ParseError, parse_poly
from .fileformat import (
    ReportDocument,
    SpecFormatError,
    StructureSpec,
    load_spec,
    spec_from_dict,
    spec_to_dict,
)

__version__ = "0.1.0"
