"""Bit-exact text format for interval exchange maps.

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
appears only when the map is not an automorphism, and no line follows the
pieces.  ``#`` starts a comment; blank lines are ignored; parsing rejects
pieces that fail to partition the domains exactly.

Each kind of line has one usage string, such as ``piece <src> <start>
<len> -> <dst> <start>``: :func:`_read` checks a line against it and reads
its slots, and :func:`_write` fills its slots back in.  Every error of a
line names that line, and a bad token its column: a repeated component id
and a non-positive length included.  Numbers and the ``sqrt(D)`` header
take ASCII digits only.
"""

from __future__ import annotations

import re
from typing import Optional

from ietlab.core import CIRCLE, INTERVAL, Component, Domain, Iet, IetError
from ietlab.field import format_number, is_square, parse_number

_PIECE = "piece <src> <start> <len> -> <dst> <start>"

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
    A ``<slot>`` reads its token: ``<id>`` as it stands, ``<src>`` as a
    component of ``source``, ``<dst>`` as one of ``target``, any other slot
    as a literal of the field, which ``<len>`` requires to be positive.
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
            elif word == "<src>":
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


def parse_iet(text: str) -> Iet:
    """Parse a document: one map, and no line after its pieces."""
    lines = _tokenize(text)
    if not lines:
        raise TextFormatError("empty document")
    ln, toks, cols = lines[0]
    if len(toks) != 2 or toks[0] != "field" or not (
        toks[1].startswith("sqrt(") and toks[1].endswith(")")
    ):
        raise TextFormatError("expected header 'field sqrt(D)'", ln)
    digits = toks[1][5:-1]
    if not _DIGITS.fullmatch(digits):
        raise TextFormatError(f"bad field index {digits!r}", ln, cols[1])
    field = int(digits)
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
    if end < len(lines):
        ln, toks, _ = lines[end]
        raise TextFormatError(f"unexpected directive {toks[0]!r}", ln)
    pieces = [_read(line, _PIECE, field, source, target) for line in lines[pos:end]]
    try:
        return Iet(source, target, pieces)
    except IetError as e:
        raise TextFormatError(f"invalid map: {e}") from e


def _field_of(h: Iet) -> int:
    """The field of the map's frame, unless every value of the map is
    rational (a component's length is a sum of piece lengths): then 2."""
    irrational = any(p.a.q or p.length.q or p.b.q for p in h.pieces)
    return h.frame.d if irrational else 2


def serialize_iet(h: Iet) -> str:
    """Canonical text form; parse o serialize is the identity on canonical
    documents."""
    src, dst = h.source.components, h.target.components
    out = [f"field sqrt({_field_of(h)})", "domain"]
    out += [_write(f"{c.kind} <id> <len>", c.cid, c.length) for c in src]
    if h.target != h.source:
        out.append("target")
        out += [_write(f"{c.kind} <id> <len>", c.cid, c.length) for c in dst]
    out += [_write(_PIECE, src[p.src].cid, p.a, p.length, dst[p.dst].cid, p.b) for p in h.pieces]
    return "\n".join(out) + "\n"
