"""The lib_diagram request: one commuting-diagram check through library calls.

Kept free of imports so that a fresh interpreter timing set-up loads only
the package.  Callers pass the package's ``weil`` and ``langlands`` modules;
calls go through their attributes, so the tracer sees them.
"""


def build_parameter(weil, param):
    """LParameter from the benchmark's (side, summands) description."""
    side, summands = param
    if side == "R":
        made = tuple(weil.RealDiscreteSummand(a, t) if kind == "d" else weil.RealCharacter(a, t)
                     for kind, a, t in summands)
    else:
        made = tuple(weil.ComplexCharacter(ell, t) for ell, t in summands)
    return weil.LParameter(side, made)


def diagram_check(weil, langlands, p) -> tuple:
    """(whether the diagram commutes, the image point).

    Real p: base_change_point(llc_real(p)) == llc_complex(restrict_to_C(p))
    and llc_real_inv(llc_real(p)) is equivalent to p.  Complex p:
    auto_induce_point(llc_complex(p)) == llc_real of the sum of the
    induce_to_R of its summands.
    """
    if p.side == "R":
        point = langlands.llc_real(p)
        image = langlands.base_change_point(point)
        ok = image == langlands.llc_complex(weil.restrict_to_C(p))
        ok = ok and weil.equivalent(langlands.llc_real_inv(point), p)
    else:
        image = langlands.auto_induce_point(langlands.llc_complex(p))
        induced = [weil.induce_to_R(chi) for chi in p.summands]
        total = induced[0]
        for part in induced[1:]:
            total = total + part
        ok = image == langlands.llc_real(total)
    return ok, image
