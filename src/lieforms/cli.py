"""Command-line front end.

Each command returns whether its checks passed, or raises ``ValueError`` on
an input error.  ``main`` alone maps these to the exit codes: 0 all checks
pass, 1 a mathematical check failed (residuals are printed), 2 parse or input
error.

Each command imports the engine modules it uses when it runs, so ``catalog
list``, ``--help`` and usage errors load no engine module.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .manifest import catalog_manifest, get_entry

PASS, MATH_FAIL, INPUT_ERROR = 0, 1, 2


def _load(path: str):
    from .algebras import parse_equations

    text = Path(path).read_text(encoding="utf-8")
    return parse_equations(text, name=Path(path).stem)


def cmd_validate(args) -> bool:
    from .algebras import check_jacobi

    sf = _load(args.file)
    report = check_jacobi(sf.algebra)
    print(report.render())
    return report.passed


def cmd_cohomology(args) -> bool:
    from .algebras import ce_cohomology

    sf = _load(args.file)
    report = ce_cohomology(sf.algebra, args.max_degree)
    print(report.render())
    return True


def cmd_check(args) -> bool:
    from .algebras import verify_basis_change
    from .catalog import StructureContext
    from .structures import is_balanced_su2, is_balanced_sun, is_hypo, validate_su2, validate_sun

    ctx = StructureContext(_load(args.file))
    sf, su2, sun = ctx.sf, ctx.su2, ctx.sun
    if args.su2 and su2 is None:
        raise ValueError("no SU(2) quadruplet (eta, omega1..omega3) in the file")
    if (args.su3 or args.su4) and sun is None:
        raise ValueError("no (F, psi_plus, psi_minus, J) structure in the file")
    if args.su3 and sf.algebra.dimension != 6:
        raise ValueError("--su3 needs a 6-dimensional algebra")
    if args.su4 and sf.algebra.dimension != 8:
        raise ValueError("--su4 needs an 8-dimensional algebra")
    if su2 is None and sun is None and sf.basis_change is None:
        raise ValueError("the file declares no checkable structure")

    ok = True
    if su2 is not None:
        validity = validate_su2(su2)
        print(validity.render())
        ok &= validity.passed
        if args.balanced or not args.hypo:
            report = is_balanced_su2(su2)
            print("balanced residuals:")
            print(report.render())
            ok &= report.passed
        if args.hypo:
            report = is_hypo(su2)
            print("hypo residuals:")
            print(report.render())
            ok &= report.passed
    if sun is not None:
        validity = validate_sun(sun)
        print(validity.render())
        ok &= validity.passed
        report = is_balanced_sun(sun)
        print(report.render())
        if args.balanced or not args.hypo:
            ok &= report.passed
    if sf.basis_change is not None:
        report = verify_basis_change(sf.algebra, sf.basis_change.matrix, sf.basis_change.target)
        print(report.render())
        ok &= report.passed
    return ok


def cmd_evolve_verify(args) -> bool:
    from .catalog import StructureContext
    from .evolution import (
        family_volume,
        validate_family,
        verify_balanced_evolution,
        verify_hypo_evolution,
    )

    family = StructureContext(_load(args.file)).family
    if family is None:
        raise ValueError("the file has no [family] section")
    validity = validate_family(family)
    print(validity.render())
    evolution = verify_balanced_evolution(family)
    print(evolution.render())
    hypo = verify_hypo_evolution(family)
    print(hypo.render())
    volume = family_volume(family)
    print(volume.render())
    return validity.passed and evolution.passed


def cmd_suspend(args) -> bool:
    from .catalog import StructureContext

    suspension = StructureContext(_load(args.file)).suspension
    if suspension is None:
        raise ValueError("the file has no [family] section")
    susp, closed = suspension
    lines = ["[algebra]", f"dim = {susp.ambient.dimension}"]
    for i, diff in enumerate(susp.ambient.differentials, start=1):
        if not diff.is_zero():
            lines.append(f"d e{i} = {diff.render()}")
    lines.append("")
    lines.append("[structure]")
    lines.append(f"F = {susp.F.render()}")
    lines.append(f"psi_plus = {susp.psi_plus.render()}")
    lines.append(f"psi_minus = {susp.psi_minus.render()}")
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    print(closed.render())
    return closed.passed


def cmd_bismut(args) -> bool:
    from .catalog import StructureContext

    ctx = StructureContext(_load(args.file))
    if ctx.frame is None:
        raise ValueError("the file needs F and J in a [structure] section")
    sheet = ctx.sheet
    show = args.show or ["torsion", "connection", "curvature", "nabla"]
    if "torsion" in show:
        print(f"T = {sheet.torsion.render()}")
        for (i, j, k) in sorted(sheet.torsion_components):
            print(f"  T_{i}{j}{k} = {sheet.torsion_components[(i, j, k)]}")
    if "connection" in show:
        print(sheet.render())
    if "curvature" in show:
        print(ctx.curv.render())
    if "nabla" in show:
        for m in range(1, ctx.sf.algebra.dimension + 1):
            table = ctx.nabla(m)
            for (i, j) in sorted(table):
                print(f"nabla_E{m} Omega^{i}_{j} = {table[(i, j)].render()}")
    return True


def cmd_holonomy(args) -> bool:
    from .catalog import StructureContext
    from .connection import holonomy_algebra

    ctx = StructureContext(_load(args.file))
    if ctx.frame is None:
        raise ValueError("the file needs F and J in a [structure] section")
    report = holonomy_algebra(ctx.sheet, ctx.curv, max_order=args.max_order)
    print(report.render())
    return True


def cmd_catalog(args) -> bool:
    if args.name and args.action != "run":
        raise ValueError(f"catalog {args.action} takes no entry name")
    if args.action == "list":
        for entry in catalog_manifest():
            print(f"{entry.name:28s} {entry.source:55s} {entry.description}")
        return True
    if args.action == "run":
        if not args.name:
            raise ValueError("catalog run needs an entry name")
        return cmd_report(args)
    from .catalog import run_entry

    results = [run_entry(entry) for entry in catalog_manifest()]
    width = max(len(r.name) for r in results)
    for rep in results:
        print(f"{'PASS' if rep.passed else 'FAIL'}  {rep.name:{width}s}  [{rep.source}]")
    print(f"{sum(r.passed for r in results)}/{len(results)} entries passed")
    return all(r.passed for r in results)


def cmd_report(args) -> bool:
    """``report NAME``, and ``catalog run NAME`` without the structure file."""
    try:
        entry = get_entry(args.name)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    from .catalog import run_entry

    report = run_entry(entry)
    print(report.render())
    if args.command == "report":
        print("structure file:")
        for line in entry.payload.rstrip().splitlines():
            print(f"    {line}")
    return report.passed


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each parse gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="lieforms",
        description="Exact exterior calculus on Lie algebras: structure "
                    "validation, evolution equations, Bismut holonomy.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the Jacobi identity of a structure file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("cohomology", help="Chevalley-Eilenberg betti numbers")
    p.add_argument("file")
    p.add_argument("--max-degree", type=int, default=None)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("check", help="validate declared structures and their conditions")
    p.add_argument("file")
    p.add_argument("--su2", action="store_true")
    p.add_argument("--su3", action="store_true")
    p.add_argument("--su4", action="store_true")
    p.add_argument("--balanced", action="store_true")
    p.add_argument("--hypo", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("evolve-verify", help="verify the evolution equations of a family")
    p.add_argument("file")
    p.set_defaults(func=cmd_evolve_verify)

    p = sub.add_parser("suspend", help="lift a family to the product with a line")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_suspend)

    p = sub.add_parser("bismut", help="torsion, connection and curvature tables")
    p.add_argument("file")
    p.add_argument("--show", action="append",
                   choices=["connection", "torsion", "curvature", "nabla"])
    p.set_defaults(func=cmd_bismut)

    p = sub.add_parser("holonomy", help="infinitesimal holonomy of the skew-torsion connection")
    p.add_argument("file")
    p.add_argument("--max-order", type=int, default=6)
    p.set_defaults(func=cmd_holonomy)

    p = sub.add_parser("catalog", help="list or run the built-in catalog")
    p.add_argument("action", choices=["list", "run", "run-all"])
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("report", help="detailed report for a catalog entry")
    p.add_argument("name")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, which matches the contract
        return INPUT_ERROR if exc.code else PASS
    try:
        return PASS if args.func(args) else MATH_FAIL
    except (OSError, ValueError) as exc:  # ParseError and the scalar errors are ValueErrors too
        print(f"error: {exc}")
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
