"""The package's start-up contract, checked in fresh interpreters.

``import lieforms``, ``catalog_manifest()`` and ``lieforms catalog list`` load
no engine module and none of the modules ``dataclasses`` imports; every public
name resolves lazily to the object its submodule defines, and the resolution
stores nothing in the package namespace.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import lieforms

SRC = str(Path(lieforms.__file__).resolve().parent.parent)
ENGINE = ("scalars", "exterior", "_linalg", "algebras", "structures", "evolution", "connection",
          "catalog", "cli")

# the public names of the package when its __init__ imported every engine module
SUBMODULE_NAMES = {
    "algebras": "CohomologyReport Interval LieAlgebra ParseError StructureFile ce_cohomology "
                "central_extension check_jacobi extend_by_line parse_compact parse_equations "
                "parse_form_expr parse_scalar_expr verify_basis_change",
    "catalog": "CatalogEntry catalog_manifest get_entry run_entry",
    "connection": "ConnectionSheet CurvatureSheet HolonomyReport MetricFrame bismut_connection "
                  "connection_from_cartan curvature holonomy_algebra levi_civita "
                  "nabla_matrices torsion_form",
    "evolution": "ParamFamily SuspendedStructure family_from_section family_volume "
                 "suspend_family validate_family verify_balanced_evolution "
                 "verify_hypo_evolution verify_orthonormal_coframe",
    "exterior": "CoframeMap Form Report apply_coframe_map contract exterior_derivative "
                "partial_t residual_report span_rank wedge wedge_power",
    "scalars": "Scalar ScalarDomainError UnsupportedScalarError",
    "structures": "SU2Structure SUnStructure check_conformal_couple circle_bundle_structure "
                  "complex_volume_forms is_balanced_su2 is_balanced_sun is_hypo "
                  "restrict_to_hypersurface restrictable_directions standard_quadruplet "
                  "suspend_su2 validate_su2 validate_sun",
}
STAR = {*SUBMODULE_NAMES, *(n for names in SUBMODULE_NAMES.values() for n in names.split())}


def run(code: str):
    done = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r})\n"
                           + code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_the_manifest_loads_no_engine_module():
    loaded = run("import json, lieforms\n"
                 "assert len(lieforms.catalog_manifest()) == 22\n"
                 "print(json.dumps(sorted(m for m in sys.modules if m.startswith('lieforms'))))")
    assert loaded == ["lieforms", "lieforms.manifest"]
    assert not {f"lieforms.{m}" for m in ENGINE} & set(loaded)


def test_catalog_list_loads_only_the_cli_and_the_manifest():
    loaded = run("import contextlib, io, json\nfrom lieforms.cli import main\n"
                 "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
                 "    assert main(['catalog', 'list']) == 0\n"
                 "    assert main(['report', 'no-such-entry']) == 2\n"
                 "    assert main(['catalog', 'frobnicate']) == 2\n"
                 "assert len(out.getvalue().splitlines()) == 23\n"
                 "print(json.dumps(sorted(m for m in sys.modules if m.startswith('lieforms'))))")
    assert loaded == ["lieforms", "lieforms.cli", "lieforms.manifest"]


# what ``import dataclasses`` loads; ``json`` already brings ``collections``
INTROSPECTION = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


@pytest.mark.parametrize("code", [
    "import lieforms\nassert len(lieforms.catalog_manifest()) == 22",
    "import contextlib, io\nfrom lieforms.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n    assert main(['catalog', 'list']) == 0",
], ids=["manifest", "catalog-list"])
def test_the_cold_start_loads_no_introspection_module(code):
    """Counted in modules, not in seconds: only the modules that the path adds
    to a fresh interpreter count, so what a ``.pth`` file preloads does not."""
    added = run("before = set(sys.modules)\n" + code + "\nimport json\n"
                "print(json.dumps(sorted(set(sys.modules) - before)))")
    assert "lieforms.manifest" in added
    assert not INTROSPECTION & set(added)


def test_every_public_name_is_its_submodule_object():
    assert STAR == set(lieforms.__all__)
    for module, names in SUBMODULE_NAMES.items():
        sub = getattr(lieforms, module)
        assert sub.__name__ == f"lieforms.{module}"
        for name in names.split():
            assert getattr(lieforms, name) is getattr(sub, name), name
    assert lieforms.catalog_manifest is lieforms.manifest.catalog_manifest
    assert lieforms.CatalogEntry is lieforms.catalog.CatalogEntry
    assert set(dir(lieforms)) >= STAR


def test_star_import_exports_the_names_of_the_eager_package():
    names = run("import json\nfrom lieforms import *\n"
                "print(json.dumps(sorted(k for k in dir() if not k.startswith('_') "
                "and k not in ('json', 'sys'))))")
    assert set(names) == STAR


def test_an_unknown_name_is_an_attribute_error():
    for name in ("no_such_name", "F", "Fraction", "EntryReport"):
        assert not hasattr(lieforms, name), name
    with pytest.raises(AttributeError, match="^module 'lieforms' has no attribute 'nope'$"):
        lieforms.nope


def test_name_resolution_writes_nothing_into_the_package():
    """Resolving a name leaves vars(lieforms) as it was, so a binding the
    layer tracer replaces in a submodule is what the package hands out."""
    changed = run("import importlib, json, lieforms\n"
                  "for m in lieforms._SUBMODULES + ('manifest',):\n"
                  "    importlib.import_module('lieforms.' + m)\n"
                  "before = dict(vars(lieforms))\n"
                  "for name in lieforms.__all__:\n"
                  "    getattr(lieforms, name)\n"
                  "print(json.dumps(sorted(set(vars(lieforms)) ^ set(before))))")
    assert changed == []
