"""Metric connections on a Lie algebra with orthonormal coframe: Levi-Civita,
the Hermitian connection with totally skew torsion, curvature and the
holonomy algebra.

Conventions, pinned by reproducing published connection tables exactly:
brackets are read from the structure equations through da(X, Y) = -a([X, Y]),
connection coefficients satisfy nabla_{e_k} e_j = sum_i G[i][j][k] e_i with
1-forms omega^i_j = sum_k G[i][j][k] e^k, and the skew-torsion connection is
the Levi-Civita connection shifted by half the torsion 3-form T = J dF.  Two
independent code paths (Koszul plus torsion correction, and the closed-form
solution of the first Cartan structure equation with prescribed skew torsion)
must agree on every input.

A ConnectionSheet holds den, the lcm of the denominators of G, and the int
matrices lams[m] = den*Lambda_m of Lambda_m = nabla_{e_m}, which nabla J = 0,
the Cartan residual check and the curvature read directly; holonomy and nabla R
divide one direction by its gcd with den.  A sheet rejects a non-skew Lambda_m,
so every connection it holds is metric.  Curvature comes from the
matrix identity R(e_k, e_l) = [Lambda_k, Lambda_l] + sum_m de^m(e_k, e_l) Lambda_m
with Lambda_m = nabla_{e_m}, the second Cartan structure equation in matrix
form.  It keeps only its int matrices den*R, which holonomy and nabla R read
directly: dividing by a gcd gives the lcm scaling of the rational matrices.
The curvature forms are a view of them.

Holonomy uses Kostant's bracket iteration for invariant connections (Kostant,
Trans. AMS 80, 1955): V_{k+1} = V_k + [nabla, V_k] from the span V_0 of the
curvature endomorphisms.  V_k is the span of R and its covariant derivatives
through order k, by the identity
(nabla_W nabla^k R)(...) = [nabla_W, nabla^k R(...)] - sum nabla^k R(..., nabla_W ., ...).
The span has a ceiling, n = 2m: su(m) when every Lambda_m and curvature
matrix commutes with J and the curvature matrices are J-traceless, u(m) when
they only commute with J, else so(n); [u(m), u(m)] lies in su(m), so every
later bracket stays inside, and the scan eliminates nothing once the span
reaches it.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from ._linalg import _integral, bracket, insert_echelon_row, nonzero_entries, sparse_product
from .algebras import LieAlgebra, check_jacobi
from .exterior import CoframeMap, Form, _indices, apply_coframe_map, sort_index
from .scalars import Scalar

Matrix = list[list[Fraction]]


@dataclass
class MetricFrame:
    """Declares e^1..e^n orthonormal for g and carries the coframe map J."""

    algebra: LieAlgebra
    J: CoframeMap

    def __post_init__(self) -> None:
        n = self.algebra.dimension
        if n % 2:
            raise ValueError("Hermitian frames need even dimension")
        if self.J.dimension != n:
            raise ValueError("J dimension mismatch")
        if not self.algebra.is_rational():
            raise ValueError("connection computations need rational structure constants")
        jacobi = check_jacobi(self.algebra)
        if not jacobi.passed:
            label, residual = jacobi.residuals[0]
            raise ValueError("connections need a Lie algebra, but the Jacobi identity "
                             f"fails: {label} = {residual.render()}")
        if not self.J.squares_to_minus_identity():
            raise ValueError("J must square to minus the identity")
        if not self.J.is_orthogonal():
            raise ValueError("J must preserve the frame metric")

    @cached_property
    def j_entries(self) -> list[tuple[int, int, int]]:
        """The nonzero entries (i, r, L*J[i][r]) of J cleared to integers by L > 0."""
        return nonzero_entries(_integral(self.J.matrix))

    def commutes_with_j(self, mat: Sequence[Sequence[int]]) -> bool:
        """JX = XJ for a skew int matrix X.  J is orthogonal with J^2 = -1, hence
        skew, so XJ = (JX)^T: X commutes with J when JX is symmetric."""
        n = len(mat)
        p = sparse_product(self.j_entries, mat, n, 0)
        return all(p[i][j] == p[j][i] for i in range(n) for j in range(i + 1, n))


@dataclass(frozen=True)
class ConnectionSheet:
    """A metric connection as the int matrices den*Lambda_m, built by ``from_table``."""

    frame: MetricFrame
    den: int                                # the lcm of the denominators of G
    lams: tuple[tuple[tuple[int, ...], ...], ...]  # lams[m][i][j] = den*G[i][j][m]
    torsion: Form | None                    # None for torsion-free
    torsion_components: dict[tuple[int, int, int], Fraction]

    def __post_init__(self) -> None:
        # the products of curvature, nabla R and the Kostant scan read every Lambda_m as skew
        if any(lam[i][j] != -lam[j][i] for lam in self.lams
               for i in range(len(lam)) for j in range(i, len(lam))):
            raise ValueError("a metric connection needs skew matrices Lambda_m")

    @classmethod
    def from_table(cls, frame: MetricFrame, den: int, table: list[list[list[int]]],
                   torsion: Form | None, components: dict) -> ConnectionSheet:
        """The sheet of G = table/den, with table[i][j][k] laid out as gamma."""
        g = gcd(den, *(v for plane in table for row in plane for v in row))
        lams = tuple(tuple(tuple(row[m] // g for row in plane) for plane in table)
                     for m in range(len(table)))
        return cls(frame, den // g, lams, torsion, dict(components))

    @cached_property
    def gamma(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        """gamma[i][j][k]: nabla_{e_k} e_j ~ e_i, a read-only rational view."""
        n = len(self.lams)
        return tuple(tuple(tuple(Fraction(lam[i][j], self.den) for lam in self.lams)
                           for j in range(n)) for i in range(n))

    def omega(self, i: int, j: int) -> Form:
        """Connection 1-form omega^i_j (1-based indices)."""
        coeffs = [lam[i - 1][j - 1] for lam in self.lams]
        return Form(len(coeffs), 1, {(k + 1,): Scalar.rational(v, self.den)
                                     for k, v in enumerate(coeffs) if v})

    def cartan_residuals(self) -> list[Form]:
        """de^i + sum_j omega^i_j ^ e^j - tau^i, all of which must vanish.  The e^ab
        coefficient (a < b), de^i_ab + G[i][b][a] - G[i][a][b] - T_iab, is summed as an
        int over s*S from s*Lambda and S*(de - T), with s = den and s*Lambda = lams."""
        n = self.frame.algebra.dimension
        s, lams = self.den, self.lams
        big_s, dval = _structure_table(self.frame.algebra, self.torsion_components)
        out = []
        for i, plane in enumerate(dval):
            coeffs = {}
            for a, b in itertools.combinations(range(n), 2):
                val = s * plane[a][b] + big_s * (lams[a][i][b] - lams[b][i][a])
                if val:
                    coeffs[(a + 1, b + 1)] = Scalar.rational(val, s * big_s)
            out.append(Form(n, 2, coeffs))
        return out

    @cached_property
    def preserves_j(self) -> bool:
        """nabla J = 0: each direction matrix Lambda_k commutes with J."""
        return all(map(self.frame.commutes_with_j, self.lams))

    def render(self) -> str:
        n = self.frame.algebra.dimension
        forms = {(i, j): self.omega(i, j) for i, j in itertools.combinations(range(1, n + 1), 2)}
        lines = [f"omega^{i}_{j} = {f.render()}" for (i, j), f in forms.items() if not f.is_zero()]
        return "\n".join(lines) if lines else "all connection forms vanish"


def torsion_form(frame: MetricFrame, kaehler_form: Form) -> tuple[Form, dict]:
    """T = J(dF) with components T_{ijk}; also feeds tau^i of the Cartan system.

    F must be g(J., .) for the orthonormal frame, F_ij = J_ji; J then fixes F.
    """
    n = frame.algebra.dimension
    jm = frame.J.matrix
    if any(kaehler_form.coefficient((i, j)) != jm[j - 1][i - 1]
           for i, j in itertools.combinations(range(1, n + 1), 2)):
        raise ValueError("F must equal g(J., .) in the orthonormal frame")
    df = frame.algebra.d(kaehler_form)
    torsion = apply_coframe_map(frame.J, df)
    return torsion, {idx: coeff.as_fraction() for idx, coeff in torsion.coeffs.items()}


def _koszul(frame: MetricFrame, components: dict) -> tuple[int, list[list[list[int]]]]:
    """2S and 2S times the Koszul table plus half the torsion T_{kji}, read from
    the structure constants; S is the lcm of all their and T's denominators."""
    n = frame.algebra.dimension
    s_c, c = frame.algebra.structure_constants()
    s = lcm(s_c, *(q.denominator for q in components.values()))
    f = s // s_c
    table = [[[(c[k][j][i] - c[j][i][k] + c[i][k][j]) * f for k in range(n)] for j in range(n)]
             for i in range(n)]
    for (a, b, d), q in components.items():
        v = q.numerator * (s // q.denominator)
        # T is totally skew: +v on the cyclic orders of (a, b, d), -v on the others
        for x, y, z, t in ((a, b, d, v), (b, d, a, v), (d, a, b, v),
                           (b, a, d, -v), (a, d, b, -v), (d, b, a, -v)):
            table[z - 1][y - 1][x - 1] += t
    return 2 * s, table


def levi_civita(frame: MetricFrame) -> ConnectionSheet:
    """Koszul formula in an orthonormal left-invariant frame."""
    den, table = _koszul(frame, {})
    return ConnectionSheet.from_table(frame, den, table, None, {})


def bismut_connection(frame: MetricFrame, kaehler_form: Form) -> ConnectionSheet:
    """Levi-Civita plus half the skew torsion, cross-checked against the
    closed-form Cartan solution."""
    torsion, components = torsion_form(frame, kaehler_form)
    den, koszul = _koszul(frame, components)
    cartan_den, cartan = _cartan(frame, components)
    if any(v * cartan_den != w * den
           for kplane, cplane in zip(koszul, cartan)
           for krow, crow in zip(kplane, cplane) for v, w in zip(krow, crow)):
        raise AssertionError(
            "Koszul-plus-torsion and Cartan-solution connection paths disagree")
    return ConnectionSheet.from_table(frame, den, koszul, torsion, components)


def _structure_table(algebra: LieAlgebra, components: dict) -> tuple[int, list[list[list[int]]]]:
    """S and the int table S*D, D_{iab} = de^i(e_a, e_b) - T_{iab} (0-based);
    S is the lcm of the denominators of the de^i and of T.  It reads the
    differentials' table, not ``structure_constants``, so that the Cartan path
    stays independent of the Koszul path it is checked against."""
    n = algebra.dimension
    den, rows = algebra.structure_table
    s = lcm(den, *(q.denominator for q in components.values()))
    dval = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(rows):
        for ab, _, v in row:
            a, b = _indices(ab)
            v *= s // den
            dval[i][a - 1][b - 1], dval[i][b - 1][a - 1] = v, -v
    for idx, q in components.items():
        v = q.numerator * (s // q.denominator)
        for i, a, b in itertools.permutations(idx):
            dval[i - 1][a - 1][b - 1] -= sort_index((i, a, b))[0] * v
    return s, dval


def _cartan(frame: MetricFrame, components: dict) -> tuple[int, list[list[list[int]]]]:
    """2S and 2S times the Cartan solution, read from the differentials."""
    n = frame.algebra.dimension
    s, dval = _structure_table(frame.algebra, components)
    return 2 * s, [[[dval[i][j][k] + dval[j][k][i] - dval[k][i][j] for k in range(n)]
                    for j in range(n)] for i in range(n)]


def connection_from_cartan(frame: MetricFrame, components: dict) -> ConnectionSheet:
    """Unique skew solution of de^i + sum omega^i_j ^ e^j = tau^i.

    Writing D_{ijk} = de^i(e_j, e_k) - T_{ijk}, the solution is
    gamma^i_{jk} = (D_{ijk} + D_{jki} - D_{kij}) / 2.
    """
    den, table = _cartan(frame, components)
    return ConnectionSheet.from_table(frame, den, table, None, components)


@dataclass
class CurvatureSheet:
    frame: MetricFrame
    den: int  # R(e_k, e_l) = matrices[(k, l)] / den
    matrices: dict[tuple[int, int], list[list[int]]]  # nonzero skew den*R(e_k, e_l), k < l

    @cached_property
    def forms(self) -> dict[tuple[int, int], Form]:
        """Omega^i_j for i < j where nonzero, Omega^i_j(e_k, e_l) = R(e_k, e_l)[i][j]:
        a view of the matrices."""
        n = self.frame.algebra.dimension
        coeffs: dict[tuple[int, int], dict[tuple[int, int], Scalar]] = {}
        for kl, mat in self.matrices.items():
            for i, j in itertools.combinations(range(n), 2):
                if mat[i][j]:
                    coeffs.setdefault((i + 1, j + 1), {})[kl] = Scalar.rational(mat[i][j], self.den)
        return {key: Form(n, 2, coeffs[key]) for key in sorted(coeffs)}

    def omega_form(self, i: int, j: int) -> Form:
        n = self.frame.algebra.dimension
        if i == j:
            return Form.zero(n, 2)
        if i < j:
            return self.forms.get((i, j), Form.zero(n, 2))
        return -self.forms.get((j, i), Form.zero(n, 2))

    def tensor(self) -> dict[tuple[int, int], Matrix]:
        """R(e_k, e_l) = [Omega^i_j(e_k, e_l)] for k < l, where nonzero: matrices / den."""
        return {key: [[Fraction(v, self.den) for v in row] for row in mat]
                for key, mat in self.matrices.items()}

    @cached_property
    def scaled_tensor(self) -> tuple[int, dict[tuple[int, int], list[list[int]]]]:
        """r and the int matrices r*R(e_k, e_l), 0-based, in both orders (k, l)
        and (l, k); r is the lcm of the denominators of the tensor."""
        r, ints = _reduced(self.den, list(self.matrices.values()))
        mats: dict[tuple[int, int], list[list[int]]] = {}
        for (k, l), mat in zip(self.matrices, ints):
            mats[(k - 1, l - 1)] = mat
            mats[(l - 1, k - 1)] = [[-v for v in row] for row in mat]
        return r, mats

    def render(self) -> str:
        lines = [f"Omega^{i}_{j} = {f.render()}" for (i, j), f in sorted(self.forms.items())
                 if not f.is_zero()]
        return "\n".join(lines) if lines else "flat: all curvature forms vanish"


def curvature(sheet: ConnectionSheet) -> CurvatureSheet:
    """Omega^i_j = d omega^i_j + omega^i_r ^ omega^r_j, in matrix form.

    Evaluated on (e_k, e_l), the second Cartan structure equation reads
    R(e_k, e_l) = [Lambda_k, Lambda_l] + sum_m de^m(e_k, e_l) Lambda_m, which
    is computed on the int matrices s*Lambda_m and the S*de^m, above the
    diagonal; each entry is written with its mirror.  The Lambda_m are skew, so
    Lambda_l Lambda_k = P^T for P = Lambda_k Lambda_l: one product per pair.
    """
    frame = sheet.frame
    n = frame.algebra.dimension
    s, lams = sheet.den, sheet.lams
    big_s, c = frame.algebra.structure_constants()
    entries = [nonzero_entries(lam) for lam in lams]
    upper = list(itertools.combinations(range(n), 2))
    matrices: dict[tuple[int, int], list[list[int]]] = {}
    for k, l in upper:
        p = sparse_product(entries[k], lams[l], n, 0)
        # (s*S*de^m(e_k, e_l), s*Lambda_m) for each m with de^m(e_k, e_l) = -c[k][l][m] != 0
        extra = [(-s * v, lam) for v, lam in zip(c[k][l], lams) if v]
        mat = None
        for i, j in upper:
            val = big_s * (p[i][j] - p[j][i]) + sum(a * lam[i][j] for a, lam in extra)
            if val:
                if mat is None:
                    mat = [[0] * n for _ in range(n)]
                mat[i][j], mat[j][i] = val, -val
        if mat is not None:
            matrices[(k + 1, l + 1)] = mat
    return CurvatureSheet(frame, s * s * big_s, matrices)


def nabla_matrices(sheet: ConnectionSheet, curv: CurvatureSheet,
                   direction: int) -> dict[tuple[int, int], Form]:
    """nabla_{E_direction} Omega^i_j as 2-forms, for report rendering.

    Only the one direction m is computed, from
    (nabla_{e_m} R)(e_k, e_l) = [Lambda_m, R_kl] - R(Lambda_m e_k, e_l) - R(e_k, Lambda_m e_l)
    with Lambda_m = nabla_{e_m}, on int matrices s*Lambda_m and r*R.
    """
    n = sheet.frame.algebra.dimension
    if not 1 <= direction <= n:
        raise ValueError(f"the direction must be in 1..{n}, got {direction}")
    r, mats = curv.scaled_tensor
    s, (lam,) = _reduced(sheet.den, [sheet.lams[direction - 1]])
    entries = nonzero_entries(lam)
    zero = [[0] * n for _ in range(n)]
    coeffs: dict[tuple[int, int], dict[tuple[int, int], Scalar]] = {}
    for k, l in itertools.combinations(range(n), 2):
        commutator = bracket(entries, mats.get((k, l), zero), n)
        terms = ([(lam[x][k], mats[(x, l)]) for x in range(n) if lam[x][k] and (x, l) in mats]
                 + [(lam[x][l], mats[(k, x)]) for x in range(n) if lam[x][l] and (k, x) in mats])
        for i, j in itertools.combinations(range(n), 2):
            val = commutator[i][j] - sum(a * mat[i][j] for a, mat in terms)
            if val:
                coeffs.setdefault((i + 1, j + 1), {})[(k + 1, l + 1)] = Scalar.rational(val, s * r)
    return {key: Form(n, 2, c) for key, c in coeffs.items()}


@dataclass(frozen=True)
class HolonomyReport:
    span_dimension: int
    generation_dimensions: tuple[int, ...]
    basis: tuple[tuple[tuple[int, ...], ...], ...]  # integer skew matrices
    contained_in_u_n: bool
    contained_in_su_n: bool
    stabilized_at_order: int | None

    def render(self) -> str:
        gens = ", ".join(str(d) for d in self.generation_dimensions)
        stab = (str(self.stabilized_at_order) if self.stabilized_at_order is not None
                else f">{len(self.generation_dimensions) - 1} (max order hit)")
        return (f"holonomy: dim={self.span_dimension}, generations=[{gens}], "
                f"u(n)={'yes' if self.contained_in_u_n else 'no'}, "
                f"su(n)={'yes' if self.contained_in_su_n else 'no'}, "
                f"stabilized at order {stab}")


def _reduced(den: int, mats: list[list[list[int]]]) -> tuple[int, list[list[list[int]]]]:
    """r and the int matrices r*M for the rational matrices M = mat/den, r the
    lcm of their denominators: r = den/g and r*M = mat/g, g = gcd(den, entries)."""
    g = gcd(den, *(v for mat in mats for row in mat for v in row))
    return den // g, [[[v // g for v in row] for row in mat] for mat in mats]


def holonomy_algebra(sheet: ConnectionSheet, curv: CurvatureSheet,
                     max_order: int = 6) -> HolonomyReport:
    """Holonomy algebra by Kostant's bracket iteration.

    V_0 = span{R(e_k, e_l)} and V_{k+1} = V_k + [Lambda, new_k], where
    Lambda_m = nabla_{e_m} and new_k holds the matrices that grew the span at
    order k (Kostant, Trans. AMS 80, 1955; Kobayashi-Nomizu II, Ch. X).  V_k
    equals the span of the curvature and its covariant derivatives through
    order k, since
    (nabla_W nabla^k R)(...) = [Lambda_W, nabla^k R(...)] - sum nabla^k R(..., Lambda_W ., ...)
    and the correction terms already lie in V_k.  All matrices are skew and
    are scaled to integers, which leaves every span unchanged; spans are taken
    by exact elimination over the entries above the diagonal.  The scan stops
    one generation after the span stops growing, or at max_order.  It inserts
    nothing more once the span reaches its ceiling: su(m), n = 2m, when every
    Lambda_m and curvature matrix commutes with J and every curvature matrix is
    J-traceless, u(m) when they commute with J, else so(n); since
    [u(m), u(m)] lies in su(m), each later bracket stays inside the ceiling.
    """
    if max_order < 0:
        raise ValueError(f"the maximum order must be nonnegative, got {max_order}")
    frame = sheet.frame
    n = frame.algebra.dimension
    upper = [(r, i, j) for r, (i, j) in enumerate(itertools.combinations(range(n), 2))]
    lams = [_reduced(sheet.den, [lam])[1][0] for lam in sheet.lams]
    curvatures = [_reduced(curv.den, [mat])[1][0] for _, mat in sorted(curv.matrices.items())]
    j_entries = frame.j_entries

    def j_trace(mat: list[list[int]]) -> int:
        return sum(v * mat[r][i] for i, r, v in j_entries)

    m = n // 2
    if sheet.preserves_j and all(map(frame.commutes_with_j, curvatures)):
        ceiling = m * m - (not any(map(j_trace, curvatures)))
    else:
        ceiling = n * (n - 1) // 2
    directions = [entries for entries in map(nonzero_entries, lams) if entries]
    echelon: list[dict[int, int]] = []
    pivots: list[int] = []
    basis: list[list[list[int]]] = []
    generations: list[int] = []

    def absorb(products: Iterable[list[list[int]]]) -> list[list[list[int]]]:
        """P - P^T for each P that grows the span, none once it reaches the ceiling."""
        grew = []
        for p in products if len(basis) < ceiling else ():
            if insert_echelon_row(echelon, pivots,
                                  {r: v for r, i, j in upper if (v := p[i][j] - p[j][i])}):
                grew.append([[p[i][j] - p[j][i] for j in range(n)] for i in range(n)])
                if len(basis) + len(grew) == ceiling:
                    break
        basis.extend(grew)
        generations.append(len(basis))
        return grew

    # P is X's upper triangle at order 0, then Lambda X, whose P - P^T is [Lambda, X]
    new = absorb([[v if i < j else 0 for j, v in enumerate(row)] for i, row in enumerate(mat)]
                 for mat in curvatures)
    stabilized: int | None = None
    for order in range(1, max_order + 1):
        new = absorb(sparse_product(entries, mat, n, 0) for mat in new for entries in directions)
        if not new:
            stabilized = order - 1
            break
    in_u_n = all(map(frame.commutes_with_j, basis))
    in_su_n = in_u_n and not any(map(j_trace, basis))
    frozen = tuple(tuple(map(tuple, mat)) for mat in basis)
    return HolonomyReport(len(basis), tuple(generations), frozen, in_u_n, in_su_n, stabilized)
