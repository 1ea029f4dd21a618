"""Three-dimensional fixture: a pair of Mori-fibered sets joined two ways.

Seven primitive vectors in Z^3 produce two link sequences between the same
endpoints.  The first is valid at set level but walks through generating
sets that are strictly smaller than the primitive points of their hulls, so
it has no polytope-level counterpart; the second stays hull-saturated
throughout.  This is the dimension-three obstruction that the planar theory
does not see.
"""

from __future__ import annotations

from .genset import PrimGenSet, fiber_structure_for
from .links import Constituent, ElementaryLink, sequence_from_steps, validate_sequence
from .polytopes import in_hull, primitive_points_in_hull
from .web import fano_purity_report

GENERATORS = {
    1: (1, 0, 0),
    2: (0, 1, 0),
    3: (-1, -1, 0),
    4: (-1, 0, 0),
    5: (0, 0, 1),
    6: (-1, 0, -1),
    7: (-2, 0, -1),
}


def points(indices):
    """The generators selected by a string of digit labels, sorted."""
    return tuple(sorted(GENERATORS[int(i)] for i in str(indices)))


def gen_set(indices):
    return PrimGenSet(3, points(indices))


def _c(indices, fiber_indices):
    return Constituent(gen_set(indices), points(fiber_indices))


def impure_sequence():
    """Two links whose middle columns are not hull-saturated sets."""
    step1 = ElementaryLink(
        kind="I_m",
        left=_c("123457", "14"),
        middle=_c("123457", "1234"),
        right=_c("12357", "123"),
        mode="set",
    )
    step2 = ElementaryLink(
        kind="II_ni",
        left=_c("12357", "123"),
        middle=_c("123567", "123"),
        right=_c("12356", "123"),
        mode="set",
    )
    return sequence_from_steps([step1, step2])


def pure_sequence():
    """The alternative route through hull-saturated sets only, in polytope
    mode: every column is the primitive points of its hull, so the route
    is also a certificate's link sequence."""
    step1 = ElementaryLink(
        kind="II_ni",
        left=_c("123457", "14"),
        middle=_c("1234567", "14"),
        right=_c("123456", "14"),
        mode="polytope",
    )
    step2 = ElementaryLink(
        kind="I_m",
        left=_c("123456", "14"),
        middle=_c("123456", "1234"),
        right=_c("12356", "123"),
        mode="polytope",
    )
    return sequence_from_steps([step1, step2])


def run_suite():
    """Validate both sequences and report the purity facts."""
    report = {"checks": [], "ok": True}

    def check(name, ok, detail=""):
        report["checks"].append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            report["ok"] = False

    impure = impure_sequence()
    pure = pure_sequence()

    rep = validate_sequence(impure)
    check("set-level sequence with impure sets validates", rep.ok, str(rep.failures))
    check(
        "kinds of the impure route",
        tuple(s.kind for s in impure.steps) == ("I_m", "II_ni"),
        str([s.kind for s in impure.steps]),
    )
    rep = validate_sequence(pure)
    check("hull-saturated sequence validates", rep.ok, str(rep.failures))
    check(
        "kinds of the saturated route",
        tuple(s.kind for s in pure.steps) == ("II_ni", "I_m"),
        str([s.kind for s in pure.steps]),
    )

    offenders = fano_purity_report(impure)
    expected = {points("12357"), points("123567")}
    check(
        "impure route flags exactly the two unsaturated sets",
        set(offenders) == expected,
        str(offenders),
    )
    check("saturated route is clean", fano_purity_report(pure) == (), "")

    five = points("12357")
    check("midpoint generator lies in the five-point hull", in_hull(GENERATORS[4], five))
    check("the shifted generator stays outside", not in_hull(GENERATORS[6], five))
    check(
        "hull of the five-point set picks up the midpoint",
        set(primitive_points_in_hull(five)) == set(points("123457")),
    )

    fs = fiber_structure_for(gen_set("123457"), points("14"))
    check(
        "segment fiber over the four base rays",
        fs.mori and fs.base.points == ((-1, 0), (0, -1), (0, 1), (1, 0)),
    )
    fs2 = fiber_structure_for(gen_set("123567"), points("123"))
    check(
        "plane fiber with a doubled base ray is not irreducible",
        (not fs2.irreducible) and fs2.base.points == ((-1,), (1,)),
    )

    endpoints_match = (
        impure.steps[0].left == pure.steps[0].left
        and impure.steps[-1].right == pure.steps[-1].right
    )
    check("the two routes share their endpoints verbatim", endpoints_match)
    return report
