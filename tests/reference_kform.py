"""Reference k-form decision that rebuilds every orbit fan, for tests only.

This is the route that ``coloredfans.galois.has_k_form`` took before it read
orbit fans off the invariance loop: validate the fan and the action, find the
first member with an image outside the fan, then for each member build its
orbit fan from scratch (one ``colored_faces`` per group element and an
all-pairs relative-interior scan) and decide it with ``is_quasiprojective``.
``has_k_form`` must give the same result, or raise the same exception with
the same message, so the two are compared input by input.

An ``orbits`` dict, passed to both functions, memoizes each member's orbit
fan, or the exception building it raised, by member key, and each orbit
fan's quasiprojectivity verdict, by the frozenset of its member keys.  An
``images`` dict memoizes each element's image of a member.  Each is valid for one datum
and one action only, so a caller makes fresh ones per case.
"""

from __future__ import annotations

from coloredfans.colored import (
    ColoredCone,
    ColoredFan,
    colored_faces,
    member_sort_key,
    relative_interior_meets,
    validate_colored_cone,
    validate_colored_fan,
)
from coloredfans.cones import cone_from_generators
from coloredfans.errors import InvalidColoredConeError, InvalidFanError
from coloredfans.galois import KFormResult, validate_action
from coloredfans.linalg import matvec
from coloredfans.quasiproj import is_quasiprojective


def reference_image(g, cc) -> ColoredCone:
    """g.cc by the double description: the matrix times each generator of the
    cone, converted again, so no image code of the library is shared."""
    gens = [matvec(g.matrix, v) for v in cc.cone.generators()]
    return ColoredCone(
        cone_from_generators(gens, len(g.matrix)),
        frozenset(g.apply_color(c) for c in cc.colors),
    )


class OrbitOverlapError(ValueError):
    """Orbit cones overlap inside the valuation cone: no invariant fan contains them."""


def reference_orbit_subfan(datum, action, cc, orbits: dict | None = None) -> ColoredFan:
    """The orbit fan of ``cc``, closed from scratch, or the exception that
    building it raises, looked up in ``orbits`` first when it is given."""
    if orbits is None:
        return _orbit_subfan(datum, action, cc)
    key = cc.key()
    if key not in orbits:
        try:
            orbits[key] = _orbit_subfan(datum, action, cc)
        except (InvalidColoredConeError, OrbitOverlapError) as exc:
            orbits[key] = exc
    found = orbits[key]
    if isinstance(found, Exception):
        raise type(found)(*found.args)
    return found


def _orbit_subfan(datum, action, cc) -> ColoredFan:
    base = validate_colored_cone(datum, cc)
    if not base.passed:
        raise InvalidColoredConeError("; ".join(base.reasons) or "axioms failed")
    members: dict = {}
    for g in action.elements():
        moved = reference_image(g, cc)
        for face in colored_faces(datum, moved):
            members.setdefault(face.key(), face)
    ordered = sorted(members.values(), key=member_sort_key)
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            if relative_interior_meets(datum, ordered[i].cone, ordered[j].cone):
                raise OrbitOverlapError(
                    f"orbit cones {ordered[i].describe()} and {ordered[j].describe()} "
                    "overlap inside the valuation cone"
                )
    return ColoredFan(tuple(ordered))


def reference_invariance_offender(action, fan, images: dict | None = None):
    """The first member, elements outer and members inner, that an element
    of the group moves out of the fan.  ``images`` memoizes each image key
    by element and member key, for one action."""
    images = {} if images is None else images
    keys = fan.member_keys()
    for g in action.elements():
        for cc in fan:
            image = images.get((g, cc.key()))
            if image is None:
                image = images[g, cc.key()] = reference_image(g, cc).key()
            if image not in keys:
                return cc
    return None


def reference_has_k_form(
    datum, action, fan, check: bool = True, orbits: dict | None = None, images: dict | None = None
) -> KFormResult:
    if check:
        fan_report = validate_colored_fan(datum, fan)
        if not fan_report.passed:
            raise InvalidFanError("; ".join(fan_report.reasons) or "fan failed validation")
        action_report = validate_action(datum, action)
        if not action_report.passed:
            raise InvalidFanError(
                "; ".join(action_report.reasons) or "action failed validation"
            )

    orbits = {} if orbits is None else orbits
    offender = reference_invariance_offender(action, fan, images)
    if offender is not None:
        return KFormResult(
            False,
            invariant=False,
            orbits_quasiprojective=None,
            reasons=(
                "(a) fan is not invariant under the Galois action; offending cone: "
                f"{offender.describe()}",
            ),
        )

    verified: list[frozenset] = []
    for cc in sorted(fan, key=lambda cc: -cc.cone.dim):
        try:
            orbit = reference_orbit_subfan(datum, action, cc, orbits)
        except OrbitOverlapError as exc:
            return KFormResult(
                False, invariant=True, orbits_quasiprojective=False, reasons=(f"(b) {exc}",)
            )
        orbit_keys = orbit.member_keys()
        if any(orbit_keys <= done for done in verified):
            continue
        if orbit_keys not in orbits:
            orbits[orbit_keys] = is_quasiprojective(datum, orbit, check=False).verdict
        if not orbits[orbit_keys]:
            return KFormResult(
                False,
                invariant=True,
                orbits_quasiprojective=False,
                reasons=(f"(b) the orbit fan of {cc.describe()} is not quasiprojective",),
            )
        verified.append(orbit_keys)
    return KFormResult(True, invariant=True, orbits_quasiprojective=True)
