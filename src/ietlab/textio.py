"""Bit-exact text format for interval exchange maps and circle certificates.

A document looks like::

    field sqrt(2)
    domain
    circle C 2/1
    interval J 1/1
    piece C 0/1 1/1 -> J 0/1
    piece C 1/1 1/1 -> C 1/1
    piece J 0/1 1/1 -> C 0/1

Numbers use the whitespace-free literal grammar of :mod:`ietlab.field`
("p/q" or "p/q+r/s*sqrt(d)").  A ``target`` block (same shape as ``domain``)
appears only when the map is not an automorphism.  Certificates for
irrational circles are appended as ``circle-cert`` blocks::

    circle-cert angle 0/1+1/4*sqrt(2) circle O 3/4
    part C 0/1 3/4
    map 0 0/1 3/4 -> 0/1
    end

``#`` starts a comment; blank lines are ignored; parsing rejects pieces that
fail to partition the domains exactly.
"""

from __future__ import annotations

from typing import Optional

from ietlab.core import (
    CIRCLE,
    INTERVAL,
    Component,
    Domain,
    Iet,
    IetError,
    Subdomain,
    subdomain_as_domain,
)
from ietlab.field import Frame, LiteralError, QuadNum, format_number, is_square, parse_number
from ietlab.rotations import IrrationalCircleCert


class TextFormatError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}: " if col is None else f"line {line}, col {col}: "
        super().__init__(f"{where}{message}")


def _tokenize(text: str) -> list[tuple[int, str, list[str]]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, raw, line.split()))
    return out


def _col_of(raw: str, token: str) -> Optional[int]:
    pos = raw.find(token)
    return pos + 1 if pos >= 0 else None


def _number_at(token: str, field: int, ln: int, raw: str) -> QuadNum:
    try:
        return parse_number(token, field)
    except LiteralError as e:
        raise TextFormatError(str(e), ln, _col_of(raw, token)) from e


def _parse_components(lines, pos, field) -> tuple[list[Component], int]:
    comps = []
    while pos < len(lines):
        ln, raw, toks = lines[pos]
        if toks[0] not in (CIRCLE, INTERVAL):
            break
        if len(toks) != 3:
            raise TextFormatError(f"expected '{toks[0]} <id> <length>'", ln)
        comps.append(Component(toks[0], toks[1], _number_at(toks[2], field, ln, raw)))
        pos += 1
    if not comps:
        raise TextFormatError("empty component list", lines[pos - 1][0] if pos else None)
    return comps, pos


def parse_document(text: str) -> tuple[Iet, list[IrrationalCircleCert]]:
    """Parse a full document: one map plus any appended circle certificates."""
    lines = _tokenize(text)
    if not lines:
        raise TextFormatError("empty document")
    pos = 0
    ln, raw, toks = lines[pos]
    if len(toks) != 2 or toks[0] != "field" or not (
        toks[1].startswith("sqrt(") and toks[1].endswith(")")
    ):
        raise TextFormatError("expected header 'field sqrt(D)'", ln)
    try:
        field = int(toks[1][5:-1])
    except ValueError:
        raise TextFormatError("bad field index", ln, _col_of(raw, toks[1])) from None
    if field <= 0 or is_square(field):
        # sqrt(D) would be rational, and the header would not survive a
        # round trip
        raise TextFormatError(
            f"field index must be a positive non-square, got {field}", ln, _col_of(raw, toks[1])
        )
    pos += 1

    if pos >= len(lines) or lines[pos][2] != ["domain"]:
        raise TextFormatError("expected 'domain'", lines[min(pos, len(lines) - 1)][0])
    pos += 1
    comps, pos = _parse_components(lines, pos, field)
    try:
        source = Domain(tuple(comps))
    except IetError as e:
        raise TextFormatError(str(e)) from e

    target = source
    if pos < len(lines) and lines[pos][2] == ["target"]:
        pos += 1
        comps, pos = _parse_components(lines, pos, field)
        try:
            target = Domain(tuple(comps))
        except IetError as e:
            raise TextFormatError(str(e)) from e

    pieces = []
    while pos < len(lines) and lines[pos][2][0] == "piece":
        ln, raw, toks = lines[pos]
        if len(toks) != 7 or toks[4] != "->":
            raise TextFormatError("expected 'piece <src> <start> <len> -> <dst> <start>'", ln)
        try:
            src = source.index_of(toks[1])
            dst = target.index_of(toks[5])
        except IetError as e:
            raise TextFormatError(str(e), ln) from e
        a = _number_at(toks[2], field, ln, raw)
        length = _number_at(toks[3], field, ln, raw)
        b = _number_at(toks[6], field, ln, raw)
        pieces.append((src, a, length, dst, b))
        pos += 1
    try:
        iet = Iet(source, target, pieces)
    except IetError as e:
        raise TextFormatError(f"invalid map: {e}") from e

    certs = []
    while pos < len(lines):
        ln, raw, toks = lines[pos]
        if toks[0] != "circle-cert":
            raise TextFormatError(f"unexpected directive {toks[0]!r}", ln)
        cert, pos = _parse_cert(lines, pos, field, iet)
        certs.append(cert)
    return iet, certs


def _parse_cert(lines, pos, field, iet) -> tuple[IrrationalCircleCert, int]:
    ln, raw, toks = lines[pos]
    if len(toks) != 6 or toks[1] != "angle" or toks[3] != "circle":
        raise TextFormatError("expected 'circle-cert angle <lit> circle <id> <len>'", ln)
    angle = _number_at(toks[2], field, ln, raw)
    circ_len = _number_at(toks[5], field, ln, raw)
    circle = Domain((Component(CIRCLE, toks[4], circ_len),))
    pos += 1
    parts = []
    while pos < len(lines) and lines[pos][2][0] == "part":
        ln, raw, toks = lines[pos]
        if len(toks) != 4:
            raise TextFormatError("expected 'part <comp> <start> <end>'", ln)
        try:
            ci = iet.source.index_of(toks[1])
        except IetError as err:
            raise TextFormatError(str(err), ln, _col_of(raw, toks[1])) from err
        parts.append((ci, _number_at(toks[2], field, ln, raw), _number_at(toks[3], field, ln, raw)))
        pos += 1
    try:
        sub = Subdomain.make(iet.source, parts)
        subdom = subdomain_as_domain(sub)
    except IetError as e:
        raise TextFormatError(f"bad certificate subdomain: {e}") from e
    conj_pieces = []
    while pos < len(lines) and lines[pos][2][0] == "map":
        ln, raw, toks = lines[pos]
        if len(toks) != 6 or toks[4] != "->":
            raise TextFormatError("expected 'map <part> <start> <len> -> <pos>'", ln)
        try:
            j = int(toks[1])
        except ValueError as e:
            raise TextFormatError(str(e), ln, _col_of(raw, toks[1])) from e
        a = _number_at(toks[2], field, ln, raw)
        length = _number_at(toks[3], field, ln, raw)
        b = _number_at(toks[5], field, ln, raw)
        conj_pieces.append((j, a, length, 0, b))
        pos += 1
    if pos >= len(lines) or lines[pos][2] != ["end"]:
        raise TextFormatError("expected 'end' after certificate", lines[pos - 1][0])
    pos += 1
    try:
        conj = Iet(subdom, circle, conj_pieces)
    except IetError as e:
        raise TextFormatError(f"bad certificate conjugator: {e}") from e
    return IrrationalCircleCert(sub, conj, angle), pos


def parse_iet(text: str) -> Iet:
    """Parse a single map, ignoring any trailing certificates."""
    return parse_document(text)[0]


def _field_of(h: Iet, certs: tuple) -> int:
    values = [c.length for c in h.source.components + h.target.components]
    for p in h.pieces:
        values += (p.a, p.length, p.b)
    for cert in certs:
        values += (cert.angle, cert.conjugator.target.components[0].length)
    return Frame([QuadNum.of(v) for v in values]).d or 2


def serialize_iet(h: Iet, certs: tuple = ()) -> str:
    """Canonical text form; parse o serialize is the identity on canonical
    documents.  Raises :class:`~ietlab.field.FieldMismatchError` when the
    map and its certificates lie in two fields."""
    out = [f"field sqrt({_field_of(h, certs)})", "domain"]
    for c in h.source.components:
        out.append(f"{c.kind} {c.cid} {format_number(c.length)}")
    if h.target != h.source:
        out.append("target")
        for c in h.target.components:
            out.append(f"{c.kind} {c.cid} {format_number(c.length)}")
    for p in h.pieces:
        out.append(
            "piece {} {} {} -> {} {}".format(
                h.source.components[p.src].cid,
                format_number(p.a),
                format_number(p.length),
                h.target.components[p.dst].cid,
                format_number(p.b),
            )
        )
    for cert in certs:
        circle = cert.conjugator.target.components[0]
        out.append(
            f"circle-cert angle {format_number(cert.angle)} circle {circle.cid} "
            f"{format_number(circle.length)}"
        )
        for ci, s, e in cert.circle_subdomain.parts:
            cid = cert.circle_subdomain.domain.components[ci].cid
            out.append(f"part {cid} {format_number(s)} {format_number(e)}")
        for p in cert.conjugator.pieces:
            out.append(
                f"map {p.src} {format_number(p.a)} {format_number(p.length)} -> "
                f"{format_number(p.b)}"
            )
        out.append("end")
    return "\n".join(out) + "\n"
