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

Each kind of line has one usage string, such as ``piece <src> <start>
<len> -> <dst> <start>``: :func:`_read` checks a line against it and reads
its slots, and :func:`_write` fills its slots back in.  Every error of a
line names that line, and a bad token its column: a repeated component id
and a non-positive length included.  Numbers, the ``sqrt(D)`` header and
part indices take ASCII digits only.
"""

from __future__ import annotations

import re
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
from ietlab.field import Frame, QuadNum, format_number, is_square, parse_number
from ietlab.rotations import IrrationalCircleCert

_PIECE = "piece <src> <start> <len> -> <dst> <start>"
_CERT = "circle-cert angle <lit> circle <id> <len>"
_PART = "part <comp> <start> <end>"
_MAP = "map <part> <start> <len> -> <pos>"

_DIGITS = re.compile("[0-9]+")

# a non-blank line: its number, its tokens and each token's 1-based column
Line = tuple[int, list[str], list[int]]


class TextFormatError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}: " if col is None else f"line {line}, col {col}: "
        super().__init__(f"{where}{message}")


def _tokenize(text: str) -> list[Line]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        toks = code.split()
        if toks:
            cols, at = [], 0
            for tok in toks:
                at = code.index(tok, at)  # whitespace precedes it, so this is its start
                cols.append(at + 1)
                at += len(tok)
            out.append((i, toks, cols))
    return out


def _read(line: Line, usage: str, field: int, source=None, target=None) -> list:
    """The values of the line's slots, in order.

    A plain word of ``usage`` is a keyword the line repeats in its place.
    A ``<slot>`` reads its token: ``<id>`` as it stands, ``<part>`` as an
    int of ASCII digits, ``<src>`` and ``<comp>`` as a component of
    ``source``, ``<dst>`` as one of ``target``, any other slot as a literal
    of the field, which ``<len>`` requires to be positive.
    """
    ln, toks, cols = line
    words = usage.split()
    if len(toks) != len(words) or any(w != t for w, t in zip(words, toks) if w[0] != "<"):
        raise TextFormatError(f"expected '{usage}'", ln)
    values = []
    for word, tok, col in zip(words, toks, cols):
        if word[0] != "<":
            continue
        try:
            if word == "<id>":
                values.append(tok)
            elif word == "<part>":
                values.append(_digits(tok, "part index"))
            elif word in ("<src>", "<comp>"):
                values.append(source.index_of(tok))
            elif word == "<dst>":
                values.append(target.index_of(tok))
            else:
                values.append(parse_number(tok, field))
                if word == "<len>" and not values[-1] > 0:
                    raise ValueError(f"non-positive length {tok}")
        except ValueError as e:  # so are LiteralError and IetError
            raise TextFormatError(str(e), ln, col) from e
    return values


def _digits(tok: str, what: str) -> int:
    """A token of ASCII digits as an int."""
    if not _DIGITS.fullmatch(tok):
        raise ValueError(f"bad {what} {tok!r}")
    return int(tok)


def _write(usage: str, *values) -> str:
    """The line of ``usage`` with its slots filled: strings as they stand,
    numbers as literals."""
    it = iter(values)
    toks = [w if w[0] != "<" else next(it) for w in usage.split()]
    return " ".join(t if isinstance(t, str) else format_number(t) for t in toks)


def _run(lines: list[Line], pos: int, *keywords: str) -> int:
    """End of the run of lines from pos that start with one of the keywords."""
    while pos < len(lines) and lines[pos][1][0] in keywords:
        pos += 1
    return pos


def _domain(lines: list[Line], pos: int, field: int) -> tuple[Domain, int]:
    end = _run(lines, pos, CIRCLE, INTERVAL)
    if end == pos:
        raise TextFormatError("empty component list", lines[pos - 1][0])
    comps = []
    for line in lines[pos:end]:
        kind = line[1][0]
        cid, length = _read(line, f"{kind} <id> <len>", field)
        if any(c.cid == cid for c in comps):
            raise TextFormatError(f"duplicate component id {cid!r}", line[0], line[2][1])
        comps.append(Component(kind, cid, length))
    return Domain(tuple(comps)), end


def parse_document(text: str) -> tuple[Iet, list[IrrationalCircleCert]]:
    """Parse a full document: one map plus any appended circle certificates."""
    lines = _tokenize(text)
    if not lines:
        raise TextFormatError("empty document")
    ln, toks, cols = lines[0]
    if len(toks) != 2 or toks[0] != "field" or not (
        toks[1].startswith("sqrt(") and toks[1].endswith(")")
    ):
        raise TextFormatError("expected header 'field sqrt(D)'", ln)
    try:
        field = _digits(toks[1][5:-1], "field index")
    except ValueError as e:
        raise TextFormatError(str(e), ln, cols[1]) from None
    if field <= 0 or is_square(field):
        # sqrt(D) would be rational, and the header would not survive a
        # round trip
        raise TextFormatError(
            f"field index must be a positive non-square, got {field}", ln, cols[1]
        )

    if len(lines) < 2 or lines[1][1] != ["domain"]:
        raise TextFormatError("expected 'domain'", lines[min(1, len(lines) - 1)][0])
    source, pos = _domain(lines, 2, field)
    target = source
    if pos < len(lines) and lines[pos][1] == ["target"]:
        target, pos = _domain(lines, pos + 1, field)

    end = _run(lines, pos, "piece")
    pieces = [_read(line, _PIECE, field, source, target) for line in lines[pos:end]]
    try:
        iet = Iet(source, target, pieces)
    except IetError as e:
        raise TextFormatError(f"invalid map: {e}") from e

    certs = []
    pos = end
    while pos < len(lines):
        ln, toks, _ = lines[pos]
        if toks[0] != "circle-cert":
            raise TextFormatError(f"unexpected directive {toks[0]!r}", ln)
        cert, pos = _parse_cert(lines, pos, field, iet)
        certs.append(cert)
    return iet, certs


def _parse_cert(lines, pos, field, iet) -> tuple[IrrationalCircleCert, int]:
    angle, cid, length = _read(lines[pos], _CERT, field)
    circle = Domain((Component(CIRCLE, cid, length),))
    pos, end = pos + 1, _run(lines, pos + 1, "part")
    parts = [_read(line, _PART, field, iet.source) for line in lines[pos:end]]
    try:
        sub = Subdomain.make(iet.source, parts)
        subdom = subdomain_as_domain(sub)
    except IetError as e:
        raise TextFormatError(f"bad certificate subdomain: {e}") from e
    pos, end = end, _run(lines, end, "map")
    maps = [_read(line, _MAP, field) for line in lines[pos:end]]
    if end >= len(lines) or lines[end][1] != ["end"]:
        raise TextFormatError("expected 'end' after certificate", lines[end - 1][0])
    try:
        conj = Iet(subdom, circle, [(j, a, n, 0, b) for j, a, n, b in maps])
    except IetError as e:
        raise TextFormatError(f"bad certificate conjugator: {e}") from e
    return IrrationalCircleCert(sub, conj, angle), end + 1


def parse_iet(text: str) -> Iet:
    """Parse a single map, ignoring any trailing certificates."""
    return parse_document(text)[0]


def _field_of(h: Iet, certs: tuple) -> int:
    """The field of the map's frame, unless every value of the map is
    rational (a component's length is a sum of piece lengths), joined with
    the fields of the certificates' values."""
    irrational = any(p.a.q or p.length.q or p.b.q for p in h.pieces)
    values = [QuadNum.sqrt(h.frame.d)] if irrational else []
    for cert in certs:
        values += (QuadNum.of(cert.angle), QuadNum.of(cert.conjugator.target.components[0].length))
    return Frame(values).d or 2


def serialize_iet(h: Iet, certs: tuple = ()) -> str:
    """Canonical text form; parse o serialize is the identity on canonical
    documents.  Raises :class:`~ietlab.field.FieldMismatchError` when the
    map and its certificates lie in two fields."""
    src, dst = h.source.components, h.target.components
    out = [f"field sqrt({_field_of(h, certs)})", "domain"]
    out += [_write(f"{c.kind} <id> <len>", c.cid, c.length) for c in src]
    if h.target != h.source:
        out.append("target")
        out += [_write(f"{c.kind} <id> <len>", c.cid, c.length) for c in dst]
    out += [_write(_PIECE, src[p.src].cid, p.a, p.length, dst[p.dst].cid, p.b) for p in h.pieces]
    for cert in certs:
        circle = cert.conjugator.target.components[0]
        sub = cert.circle_subdomain
        out.append(_write(_CERT, cert.angle, circle.cid, circle.length))
        out += [_write(_PART, sub.domain.components[ci].cid, s, e) for ci, s, e in sub.parts]
        out += [_write(_MAP, str(p.src), p.a, p.length, p.b) for p in cert.conjugator.pieces]
        out.append("end")
    return "\n".join(out) + "\n"
