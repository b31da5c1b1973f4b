"""Every input check of the engine's constructors and operators raises its own
type and message; where a structure file can reach the check, the CLI turns
it into exit code 2 with that message."""

from fractions import Fraction

import pytest

from lieforms.algebras import (
    LieAlgebra,
    central_extension,
    lift_form,
    parse_compact,
    parse_equations,
    verify_basis_change,
)
from lieforms.connection import MetricFrame
from lieforms.exterior import (
    CoframeMap,
    Form,
    apply_coframe_map,
    contract,
    exterior_derivative,
    wedge,
    wedge_power,
)
from lieforms.scalars import Scalar, UnsupportedScalarError
from lieforms.structures import (
    SU2Structure,
    SUnStructure,
    check_conformal_couple,
    circle_bundle_structure,
    restrict_to_hypersurface,
    su2_geometry,
)
from test_cli import GOOD_ALGEBRA, IWASAWA_STRUCTURE, QUADRUPLET, run_cli, write

J4 = "e1 -> -e2, e2 -> e1, e3 -> -e4, e4 -> e3"


def quadruplet(eta):
    return GOOD_ALGEBRA + QUADRUPLET.replace("eta = e1", f"eta = {eta}")


def su2_of(text):
    sf = parse_equations(text)
    f = sf.forms
    return SU2Structure(sf.algebra, f["eta"], f["omega1"], f["omega2"], f["omega3"])


def sun_of(text):
    sf = parse_equations(text)
    f = sf.forms
    return SUnStructure(sf.algebra, f["F"], f["psi_plus"], f["psi_minus"], sf.coframe_map)


def frame_of(text):
    sf = parse_equations(text)
    return MetricFrame(sf.algebra, sf.coframe_map)


def iwasawa_sun(kaehler="e12 + e34 + e56"):
    return sun_of(IWASAWA_STRUCTURE.replace("F = e12 + e34 + e56", f"F = {kaehler}"))


def sun4():
    return sun_of(f"[algebra]\ndim = 4\n\n[structure]\nF = e12 + e34\n"
                  f"psi_plus = e13 - e24\npsi_minus = e14 + e23\nJ: {J4}\n")


def gen(dim, i):
    return Form.generator(dim, i)


def zero_algebra(dim):
    return LieAlgebra(dim, tuple(Form.zero(dim, 2) for _ in range(dim)))


def two_forms(dim, *terms):
    return [Form.from_terms(dim, 2, [(tuple(int(c) for c in idx), 1)]) for idx in terms]


NOT_ON_T = IWASAWA_STRUCTURE.replace("compact = (0,0,0,0,13+42,14+23)", "dim = 6\nd e6 = t*e12")

# (id, call, exception type, message, (CLI command, structure file) or None)
CASES = [
    ("su2-dimension",
     lambda: SU2Structure(zero_algebra(4), gen(4, 1), *two_forms(4, "12", "13", "14")),
     ValueError, "SU(2)-structures live on 5-dimensional algebras", None),
    ("sun-odd-dimension",
     lambda: SUnStructure(zero_algebra(5), *two_forms(5, "12", "13", "24"),
                          CoframeMap.from_rows([[0] * 5] * 5)),
     ValueError, "SU(n)-structures live on even-dimensional algebras",
     ("check", GOOD_ALGEBRA + f"\n[structure]\nF = e12 + e34\npsi_plus = e13\npsi_minus = e24\n"
               f"J: {J4}, e5 -> e5\n")),
    ("eta-zero", lambda: su2_geometry(su2_of(quadruplet("0*e1"))),
     ValueError, "eta must be a nowhere vanishing 1-form", ("check", quadruplet("0*e1"))),
    ("eta-parametric", lambda: su2_geometry(su2_of(quadruplet("e1 + t*e2"))),
     UnsupportedScalarError, "parametric quadruplets need eta proportional to a single generator",
     ("evolve-verify", quadruplet("e1 + t*e2").replace("[structure]", "[family]"))),
    ("eta-of-reeb-zero", lambda: su2_geometry(su2_of(quadruplet("e2"))),
     ValueError, "omega3 is degenerate on ker eta", ("check", quadruplet("e2"))),
    ("restrict-dimension", lambda: restrict_to_hypersurface(sun4(), [1, 0, 0, 0]),
     ValueError, "restriction is implemented for 6-dimensional structures", None),
    ("restrict-components", lambda: restrict_to_hypersurface(iwasawa_sun(), [1, 0, 0, 0, 0]),
     ValueError, "the normal direction needs 6 frame components", None),
    ("restrict-unit-length",
     lambda: restrict_to_hypersurface(iwasawa_sun("2 e12 + e34 + e56"), [1, 0, 0, 0, 0, 0]),
     ValueError, "the normal direction is not unit length", None),
    ("restrict-orthogonal",
     lambda: restrict_to_hypersurface(iwasawa_sun("e12 + e34 + e56 + e14 - e23"),
                                      [1, 0, 0, 0, 0, 0]),
     ValueError, "the frame complement of the direction is not g-orthogonal", None),
    ("circle-bundle-base",
     lambda: circle_bundle_structure(zero_algebra(5), *two_forms(5, "12", "13", "14", "15")),
     ValueError, "the base of the circle bundle must be 4-dimensional", None),
    ("circle-bundle-theta",
     lambda: circle_bundle_structure(zero_algebra(4), *two_forms(4, "12", "13", "14", "34"),
                                     theta=(Fraction(1), Fraction(1))),
     ValueError, "theta must be given by a rational (cos, sin) pair on the circle", None),
    ("conformal-couple-dimension",
     lambda: check_conformal_couple(zero_algebra(5), *two_forms(5, "12", "13", "14")),
     ValueError, "conformal couples live on 4-dimensional algebras", None),
    ("algebra-differential-count", lambda: LieAlgebra(3, (Form.zero(3, 2),) * 2),
     ValueError, "need one differential per generator", None),
    ("algebra-differential-degree", lambda: LieAlgebra(2, (gen(2, 1), Form.zero(2, 2))),
     ValueError, "differentials must be degree-2 forms in the algebra dimension", None),
    ("lift-to-smaller", lambda: lift_form(gen(3, 1), 2),
     ValueError, "cannot lift to a smaller dimension", None),
    ("central-extension-curvature", lambda: central_extension(zero_algebra(4), gen(4, 1)),
     ValueError, "curvature must be a 2-form on the base algebra", None),
    ("basis-change-dimension",
     lambda: verify_basis_change(zero_algebra(4), [[Scalar.one()] * 4] * 4,
                                 parse_compact("(0,0,0)")),
     ValueError, "matrix and algebras must share one dimension",
     ("check", "[algebra]\ncompact = (0,0,0,12)\n\n[basis_change]\ntarget = (0,0,0)\n"
               "f1 = e1\nf2 = e2\nf3 = e3\nf4 = e4\n")),
    ("frame-j-dimension",
     lambda: MetricFrame(zero_algebra(6), CoframeMap.from_rows([[0, -1], [1, 0]])),
     ValueError, "J dimension mismatch", None),
    ("frame-not-rational", lambda: frame_of(NOT_ON_T),
     ValueError, "connection computations need rational structure constants",
     ("bismut", NOT_ON_T)),
    ("form-index-length", lambda: Form(3, 2, {(1,): Scalar.one()}),
     ValueError, "index (1,) has wrong length for degree 2", None),
    ("wedge-dimensions", lambda: wedge(gen(3, 1), gen(4, 1)),
     ValueError, "forms live over different coframe dimensions", None),
    ("negative-wedge-power", lambda: wedge_power(gen(3, 1), -1),
     ValueError, "negative wedge power", None),
    ("contract-components", lambda: contract([1, 0], gen(3, 1)),
     ValueError, "vector has wrong number of components", None),
    ("coframe-not-square", lambda: CoframeMap.from_rows([[1, 0], [0]]),
     ValueError, "coframe matrix must be square", None),
    ("coframe-map-dimension",
     lambda: apply_coframe_map(CoframeMap.from_rows([[1, 0], [0, 1]]), gen(3, 1)),
     ValueError, "coframe map dimension mismatch", None),
    ("d-off-the-algebra", lambda: exterior_derivative(zero_algebra(4), gen(3, 1)),
     ValueError, "form does not live on the given algebra", None),
]


@pytest.mark.parametrize("call, error, message, cli", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_input_checks_raise_their_message(call, error, message, cli, tmp_path):
    with pytest.raises(ValueError) as info:
        call()
    assert (info.type, str(info.value)) == (error, message)
    if cli is not None:
        command, text = cli
        assert run_cli([command, write(tmp_path, "case.alg", text)]) == (2, f"error: {message}\n")
