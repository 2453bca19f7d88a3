"""Multi-rotations and certified irrational circles.

A multi-rotation preserves every component of its domain, rotating each
circle and fixing each interval pointwise; a virtual multi-rotation is any
continuous interval exchange.  An irrational circle of a map T is a
T-invariant subdomain on which T is conjugate, by an interval exchange, to
a rotation of irrational angle.  This module verifies supplied certificates
exactly; discovery is implemented only for the two cases where it is
mechanical (a literal circle component, and the two-piece rolled-out
rotation pattern on an interval).

Powers of a multi-rotation are built in closed form
(:func:`multi_rotation_power`): R^n turns each circle by n times its
angle, with no composition.  In checked mode (``IETLAB_CHECK=1``) each one
is compared with ``R ** n``, the product of repeated squaring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ietlab import core
from ietlab.core import (
    CIRCLE,
    INTERVAL,
    DomainMismatchError,
    Iet,
    IetError,
    SelfCheckError,
    Subdomain,
    circle_rotation,
    subdomain_as_domain,
)
from ietlab.field import QuadNum


def is_virtual_multi_rotation(h: Iet) -> bool:
    """Continuous automorphism: no discontinuity points at all."""
    if h.source != h.target:
        raise DomainMismatchError("needs an automorphism")
    return h.d() == 0


def is_multi_rotation(h: Iet) -> bool:
    """Continuous, preserves each component, and fixes intervals pointwise."""
    if not is_virtual_multi_rotation(h):
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


@dataclass(frozen=True)
class IrrationalCircleCert:
    """Certificate that a map rotates irrationally on an invariant subdomain.

    ``conjugator`` maps the subdomain's stand-alone domain (see
    :func:`ietlab.core.subdomain_as_domain`) onto a single circle, and the
    claim is that conjugator o (T restricted) o conjugator^-1 is the rotation
    by ``angle`` with angle/circumference irrational.
    """

    circle_subdomain: Subdomain
    conjugator: Iet
    angle: QuadNum


def ratio_is_irrational(x: QuadNum, length: QuadNum) -> bool:
    return not (x / length).is_rational()


def verify_irrational_circle(t: Iet, cert: IrrationalCircleCert) -> bool:
    """Exact check of an irrational-circle certificate."""
    sub = cert.circle_subdomain
    if sub.domain != t.source:
        raise DomainMismatchError("certificate subdomain lives elsewhere")
    if sub.is_empty():
        return False
    if t.image_of(sub) != sub:
        return False
    restricted = t.restrict(sub)
    if cert.conjugator.source != restricted.source:
        raise DomainMismatchError("conjugator does not start at the subdomain")
    tgt = cert.conjugator.target
    if len(tgt.components) != 1 or tgt.components[0].kind != CIRCLE:
        return False
    conj = cert.conjugator
    rotated = conj * restricted * ~conj
    length = tgt.components[0].length
    expected = circle_rotation(length, cert.angle, cid=tgt.components[0].cid)
    if rotated != expected:
        return False
    return ratio_is_irrational(cert.angle.mod(length), length)


def roll_up_two_interval(h: Iet, l, comp: int = 0) -> Optional[IrrationalCircleCert]:
    """Certificate for the rolled-out rotation pattern on [0, l).

    The restriction of ``h`` to [0, l) in component ``comp`` must consist of
    a translation by some tau on [0, l - tau) and the complementary wrap on
    [l - tau, l); rolling the interval up into a circle of circumference l
    conjugates it to the rotation by tau.  Returns None when tau / l is
    rational (no irrational-circle certificate exists), and raises when the
    restriction does not have the two-piece pattern.
    """
    sub = Subdomain.make(h.source, [(comp, 0, l)])
    if h.image_of(sub) != sub:
        raise IetError("[0, l) is not invariant")
    restricted = h.restrict(sub)
    ps = restricted.pieces
    # any canonical two-piece automorphism of [0, L) is the rolled-out
    # rotation by its first image start (sigma must be the swap)
    if len(ps) != 2:
        raise IetError("restriction is not a two-piece rolled-out rotation")
    tau = ps[0].b
    length = restricted.source.components[0].length
    if not ratio_is_irrational(tau, length):
        return None
    circle = circle_rotation(length, tau).source
    conj = Iet(restricted.source, circle, [(0, 0, length, 0, 0)])
    return IrrationalCircleCert(sub, conj, tau)


@dataclass(frozen=True)
class MultiRotationDecomposition:
    """Support of a multi-rotation split into certified irrational circles.

    ``power`` is the exponent applied first so that every moving circle
    rotates irrationally (it kills the finite-order circles).
    """

    power: int
    certs: tuple[IrrationalCircleCert, ...]


def decompose_multi_rotation(h: Iet) -> Optional[MultiRotationDecomposition]:
    """Certificates for each moving circle of a multi-rotation; None when the
    input is not a multi-rotation (no general detection is attempted)."""
    if h.source != h.target:
        raise DomainMismatchError("needs an automorphism")
    if not is_multi_rotation(h):
        return None
    angles = circle_angles(h)
    power = 1
    for ci, ang in angles.items():
        length = h.source.components[ci].length
        ratio = ang / length
        if ratio.is_rational() and ratio != 0:
            power = math.lcm(power, ratio.a.denominator)
    hk = multi_rotation_power(h, power)
    certs = []
    for ci, comp in enumerate(h.source.components):
        if comp.kind != CIRCLE:
            continue
        ang = (angles[ci] * power).mod(comp.length)
        if ang == 0:
            continue
        sub = Subdomain.make(h.source, [(ci, 0, comp.length)])
        restricted_dom = subdomain_as_domain(sub)
        conj = Iet.identity(restricted_dom)
        cert = IrrationalCircleCert(sub, conj, ang)
        if not verify_irrational_circle(hk, cert):
            raise IetError("decomposition produced an invalid certificate")  # pragma: no cover
        certs.append(cert)
    return MultiRotationDecomposition(power, tuple(certs))
