"""Exact exterior calculus on Lie algebras.

Left-invariant differential forms with exact rational or one-parameter
radical coefficients, structure-equation input grammars, SU(2)/SU(n)
structure validation with balanced and hypo conditions, one-parameter
evolution families, and the skew-torsion Hermitian connection with its
curvature and infinitesimal holonomy.
"""

from .algebras import (
    CohomologyReport,
    Interval,
    LieAlgebra,
    ParseError,
    StructureFile,
    ce_cohomology,
    central_extension,
    check_jacobi,
    extend_by_line,
    parse_compact,
    parse_equations,
    parse_form_expr,
    parse_scalar_expr,
    verify_basis_change,
)
from .catalog import CatalogEntry, catalog_manifest, get_entry, run_entry
from .connection import (
    ConnectionSheet,
    CurvatureSheet,
    HolonomyReport,
    MetricFrame,
    bismut_connection,
    connection_from_cartan,
    curvature,
    holonomy_algebra,
    levi_civita,
    nabla_matrices,
    torsion_form,
)
from .evolution import (
    ParamFamily,
    SuspendedStructure,
    family_from_section,
    family_volume,
    suspend_family,
    validate_family,
    verify_balanced_evolution,
    verify_hypo_evolution,
    verify_orthonormal_coframe,
)
from .exterior import (
    CoframeMap,
    Form,
    Report,
    apply_coframe_map,
    contract,
    exterior_derivative,
    partial_t,
    residual_report,
    span_rank,
    wedge,
    wedge_power,
)
from .scalars import Rational, Scalar, ScalarDomainError, UnsupportedScalarError, var_t
from .structures import (
    SU2Structure,
    SUnStructure,
    check_conformal_couple,
    circle_bundle_structure,
    complex_volume_forms,
    is_balanced_su2,
    is_balanced_sun,
    is_hypo,
    restrict_to_hypersurface,
    restrictable_directions,
    standard_quadruplet,
    suspend_su2,
    validate_su2,
    validate_sun,
)

__version__ = "0.1.0"
