"""Multi-rotations and their irrational circles.

A multi-rotation is a continuous automorphism (it has no jumps) that
preserves every component of its domain, rotating each circle and fixing
each interval pointwise.  An irrational circle of a multi-rotation is a
circle component that it turns by an irrational fraction of its length
(:func:`irrational_circles`).  The ``minimal-model`` report names the
irrational circles of a model h_m: the certificate's conjugator c satisfies
c h c^-1 = h_m exactly, so on each such circle h is conjugate to a rotation
of irrational angle.

Powers of a multi-rotation are built in closed form
(:func:`multi_rotation_power`): R^n turns each circle by n times its
angle, with no composition.  In checked mode (``IETLAB_CHECK=1``) each one
is compared with ``R ** n``, the product of repeated squaring.
"""

from __future__ import annotations

from ietlab import core
from ietlab.core import CIRCLE, INTERVAL, DomainMismatchError, Iet, IetError, SelfCheckError
from ietlab.field import QuadNum


def is_multi_rotation(h: Iet) -> bool:
    """No jumps, preserves each component, and fixes intervals pointwise.
    Raises :class:`DomainMismatchError` when h is not an automorphism."""
    if h.source != h.target:
        raise DomainMismatchError("needs an automorphism")
    if h.d() != 0:
        return False
    for p in h.pieces:
        if p.src != p.dst:
            return False
        if h.source.components[p.src].kind == INTERVAL and p.a != p.b:
            return False
    return True


def circle_angles(h: Iet) -> dict[int, QuadNum]:
    """Rotation amount of a multi-rotation on each of its circle components."""
    if not is_multi_rotation(h):
        raise IetError("not a multi-rotation")
    out = {}
    for ci, comp in enumerate(h.source.components):
        if comp.kind != CIRCLE:
            continue
        first = next(p for p in h.pieces if p.src == ci)
        out[ci] = first.b - first.a  # piece at 0 maps 0 to the angle
    return out


def multi_rotation_power(h: Iet, n: int) -> Iet:
    """h^n for a multi-rotation h and any integer n, in closed form.

    On a circle of length L turned by a, h^n turns by (n a) mod L: two
    pieces, or one fixed piece when that is 0; intervals stay fixed
    pointwise.  The result goes through the validating ``Iet(...)``.  In
    checked mode it must equal ``h ** n``, or :class:`SelfCheckError` is
    raised.  Raises :class:`IetError` when h is not a multi-rotation.
    """
    angles = circle_angles(h)
    pieces = []
    for ci, comp in enumerate(h.source.components):
        length = comp.length
        t = (angles[ci] * n).mod(length) if ci in angles else 0
        if t == 0:
            pieces.append((ci, 0, length, ci, 0))
        else:
            pieces += [(ci, 0, length - t, ci, t), (ci, length - t, t, ci, 0)]
    out = Iet(h.source, h.source, pieces)
    if core.CHECKED and out != h ** n:
        raise SelfCheckError(f"closed-form power {n} of a multi-rotation disagrees with h ** n")
    return out


def irrational_circles(h: Iet) -> tuple[int, ...]:
    """Indices of the circle components that the multi-rotation h turns by
    an irrational fraction of their length; () when h is not a
    multi-rotation.  Each such circle is h-invariant, and h restricted to
    it is a rotation of irrational angle."""
    if not is_multi_rotation(h):
        return ()
    comps = h.source.components
    angles = circle_angles(h)
    return tuple(ci for ci, a in angles.items() if not (a / comps[ci].length).is_rational())
