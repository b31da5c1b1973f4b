"""Exact exterior calculus on Lie algebras.

Left-invariant differential forms with exact rational or one-parameter
radical coefficients, structure-equation input grammars, SU(2)/SU(n)
structure validation with balanced and hypo conditions, one-parameter
evolution families, and the skew-torsion Hermitian connection with its
curvature and infinitesimal holonomy.

The public names are resolved on first access (PEP 562), so importing the
package loads no engine module; ``catalog_manifest`` reads the catalog data
without one.
"""

import importlib

# the one list of the package's public names: submodule -> the names it defines
_EXPORTS = {name: module for module, names in {
    "algebras": "CohomologyReport Interval LieAlgebra ParseError StructureFile ce_cohomology "
                "central_extension check_jacobi extend_by_line parse_compact parse_equations "
                "parse_form_expr parse_scalar_expr verify_basis_change",
    "catalog": "run_entry",
    "connection": "ConnectionSheet CurvatureSheet HolonomyReport MetricFrame bismut_connection "
                  "connection_from_cartan curvature holonomy_algebra levi_civita "
                  "nabla_matrices torsion_form",
    "evolution": "ParamFamily SuspendedStructure family_from_section family_volume "
                 "suspend_family validate_family verify_balanced_evolution "
                 "verify_hypo_evolution verify_orthonormal_coframe",
    "exterior": "CoframeMap Form Report apply_coframe_map contract exterior_derivative "
                "partial_t residual_report span_rank wedge wedge_power",
    "manifest": "CatalogEntry catalog_manifest get_entry",
    "scalars": "Rational Scalar ScalarDomainError UnsupportedScalarError var_t",
    "structures": "SU2Structure SUnStructure check_conformal_couple circle_bundle_structure "
                  "complex_volume_forms is_balanced_su2 is_balanced_sun is_hypo "
                  "restrict_to_hypersurface restrictable_directions standard_quadruplet "
                  "suspend_su2 validate_su2 validate_sun",
}.items() for name in names.split()}
# the submodules an eager __init__ bound, which ``import *`` exported too
_SUBMODULES = ("algebras", "catalog", "connection", "evolution", "exterior", "scalars",
               "structures")
__all__ = [*_EXPORTS, *_SUBMODULES]

__version__ = "0.1.0"


def __getattr__(name):
    # returns the submodule's current binding and stores nothing here, so a
    # binding replaced in the submodule is what the package hands out
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
