"""Command line front end.

Every command reads/writes the text format of :mod:`ietlab.textio`, prints a
human-readable report (or JSON with ``--json``) and exits 0 on success, 1 on
a soft failure (a search that found nothing or hit its cap), 2 on bad input
and 3 on an internal error (an exact self-check failed, which is a bug).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Optional

from ietlab.approx import (
    GridCapError,
    TraceVerificationError,
    enumerate_finite_group,
    orbit_ball,
    rationalize,
    translation_amplitude_count,
)
from ietlab.core import Iet, IetError, Point, SelfCheckError, lengths_of, make_point
from ietlab.field import (
    FieldMismatchError,
    LiteralError,
    LpInternalError,
    QuadNum,
    format_number,
    parse_number,
)
from ietlab.menagerie import (
    build_example_group,
    default_lambda,
    example_2_3,
    free_semigroup_check,
    symmetric_embedding,
)
from ietlab.relations import (
    CapExceededError,
    ShrinkVerificationError,
    drift_direction,
    is_admissible,
    relation_certificate,
    vanishing_coordinate_certificate,
)
from ietlab.rotations import irrational_circles
from ietlab.suspension import MinimalModelError, minimal_model, norm_bounds
from ietlab.textio import TextFormatError, parse_iet, serialize_iet

EXIT_OK = 0
EXIT_SOFT = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# searches that ran out of depth, grid or power budget: nothing found
SOFT_ERRORS = (MinimalModelError, GridCapError, CapExceededError)
# exact self-checks that failed: a bug, never a property of the input
INTERNAL_ERRORS = (
    LpInternalError,
    SelfCheckError,
    TraceVerificationError,
    ShrinkVerificationError,
)


class InputError(Exception):
    pass


class Report:
    def __init__(self, command: str):
        self.command = command
        self.inputs: dict[str, str] = {}
        self.parameters: dict = {}
        self.outcome: dict = {}
        self.witnesses: list[str] = []
        self._start = time.monotonic()

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "parameters": self.parameters,
            "outcome": self.outcome,
            "witnesses": self.witnesses,
            "timing": round(time.monotonic() - self._start, 6),
        }

    def emit(self, as_json: bool) -> None:
        # exact integers print in full: CPython 3.11 refuses to print one of
        # more than 4,300 digits unless the limit is lifted
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            if as_json:
                print(json.dumps(self.as_dict(), sort_keys=True))
                return
            for key, value in self.outcome.items():
                print(f"{key}: {value}")
            for path in self.witnesses:
                print(f"wrote {path}")
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)


def _load(report: Report, path: str) -> Iet:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    report.inputs[path] = hashlib.sha256(text.encode()).hexdigest()
    try:
        return parse_iet(text)
    except TextFormatError as e:
        raise InputError(f"{path}: {e}") from e


def _write(report: Report, path: str, h: Iet) -> None:
    Path(path).write_text(serialize_iet(h))
    report.witnesses.append(path)


def _perm(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise InputError(f"bad permutation {text!r}; expected like '3,2,1'") from None


def _number(text: str) -> QuadNum:
    try:
        return parse_number(text)
    except LiteralError as e:
        raise InputError(str(e)) from e


def _point(h: Iet, text: str) -> Point:
    comp = 0
    coord = text
    if ":" in text:
        cid, coord = text.split(":", 1)
        comp = h.source.index_of(cid)
    return make_point(h.source, comp, _number(coord))


def cmd_show(args, report) -> int:
    h = _load(report, args.file)
    report.outcome["pieces"] = len(h.pieces)
    report.outcome["jumps"] = h.d()
    text = serialize_iet(h)
    if args.output:
        Path(args.output).write_text(text)
        report.witnesses.append(args.output)
    else:
        report.outcome["canonical"] = "\n" + text
    return EXIT_OK


def cmd_compose(args, report) -> int:
    a = _load(report, args.a)
    b = _load(report, args.b)
    c = a * b
    _write(report, args.output, c)
    report.outcome["jumps"] = c.d()
    return EXIT_OK


def cmd_invert(args, report) -> int:
    h = _load(report, args.file)
    _write(report, args.output, ~h)
    return EXIT_OK


def cmd_norm(args, report) -> int:
    h = _load(report, args.file)
    lo, up = norm_bounds(h, args.nmax)
    report.parameters["nmax"] = args.nmax
    report.outcome["lower"] = lo
    report.outcome["upper"] = up
    return EXIT_OK


def cmd_minimal_model(args, report) -> int:
    h = _load(report, args.file)
    report.parameters["depth"] = args.depth
    report.parameters["check"] = args.check
    cert = minimal_model(h, depth=args.depth, n_check=args.check)
    report.outcome["upper"] = cert.norm  # proven: |h| <= upper
    report.outcome["linear_up_to"] = cert.verified_up_to  # verified, not proven
    report.outcome["search_depth"] = cert.search_depth
    report.outcome["model_components"] = " ".join(
        f"{c.cid}={c.kind}:{format_number(c.length)}" for c in cert.h_m.source.components
    )
    # circles of h_m turned by an irrational fraction of their length
    report.outcome["irrational_circles"] = " ".join(
        cert.h_m.source.components[ci].cid for ci in irrational_circles(cert.h_m)
    )
    if args.out_model:
        _write(report, args.out_model, cert.h_m)
    if args.out_conjugator:
        _write(report, args.out_conjugator, cert.conjugator)
    return EXIT_OK


def cmd_drift(args, report) -> int:
    sigma = _perm(args.perm)
    report.parameters["perm"] = list(sigma)
    dd = drift_direction(sigma)
    report.outcome["admissible"] = dd is not None
    if dd is None:
        # conclusive negative, certified: not a soft failure
        m, checked = vanishing_coordinate_certificate(sigma)
        report.outcome["fixed_coordinate"] = m
        report.outcome["vanishing_checked"] = checked
        return EXIT_OK
    report.outcome["dl"] = [str(x) for x in dd.dl]
    report.outcome["dr"] = [str(x) for x in dd.dr]
    report.outcome["dr_min"] = str(dd.dr_min)
    report.outcome["dr_max"] = str(dd.dr_max)
    return EXIT_OK


def cmd_admissible(args, report) -> int:
    sigma = _perm(args.perm)
    report.parameters["perm"] = list(sigma)
    report.outcome["admissible"] = is_admissible(sigma)
    return EXIT_OK


def cmd_relation_hunt(args, report) -> int:
    s = _load(report, args.s)
    t = _load(report, args.t)
    report.parameters["q"] = args.q
    report.parameters["kcap"] = args.kcap
    cert = relation_certificate(s, t, args.q, k_cap=args.kcap)
    if cert is None:
        report.outcome["found"] = False
        return EXIT_SOFT
    report.outcome["found"] = True
    report.outcome["word"] = cert.word.format(("s", "t"))
    report.outcome["letters"] = len(cert.word)
    report.outcome["runs"] = len(cert.word.letters)
    report.outcome["exponent"] = cert.exponent
    report.outcome["k"] = cert.k
    if cert.epsilon is not None:
        report.outcome["epsilon"] = str(cert.epsilon)
    if args.out_witness:
        _write(report, args.out_witness, cert.u)
    return EXIT_OK


def cmd_rationalize(args, report) -> int:
    gens = [_load(report, p) for p in args.files]
    report.parameters["radius"] = args.radius
    rats, quot = rationalize(gens, args.radius)
    report.outcome["grid"] = quot.grid
    report.outcome["group_size"] = quot.group_size
    report.outcome["lengths"] = [
        [format_number(x) for x in lengths_of(g)] for g in rats
    ]
    for i, g in enumerate(rats):
        path = f"{args.out_prefix}{i}.iet"
        _write(report, path, g)
    return EXIT_OK


def cmd_orbit_ball(args, report) -> int:
    gens = [_load(report, p) for p in args.files]
    x = _point(gens[0], args.x)
    report.parameters["x"] = args.x
    report.parameters["radius"] = args.radius
    ball = orbit_ball(gens, x, args.radius)
    report.outcome["size"] = len(ball)
    amplitudes = translation_amplitude_count(gens)
    report.outcome["amplitudes"] = amplitudes
    report.outcome["bound"] = (2 * args.radius + 1) ** amplitudes
    pts = sorted(ball, key=Point.key)
    report.outcome["points"] = [
        f"{gens[0].source.components[p.comp].cid}:{format_number(p.x)}" for p in pts
    ]
    return EXIT_OK


def cmd_finite_group(args, report) -> int:
    gens = [_load(report, p) for p in args.files]
    report.parameters["cap"] = args.cap
    report.outcome["order"] = enumerate_finite_group(gens, cap=args.cap)
    return EXIT_OK


def cmd_example(args, report) -> int:
    if args.which == "circle-2-3":
        h = example_2_3(_number(args.l), _number(args.tau))
        report.parameters["l"] = args.l
        report.parameters["tau"] = args.tau
        report.outcome["jumps"] = h.d()
        if args.output:
            _write(report, args.output, h)
        else:
            report.outcome["map"] = "\n" + serialize_iet(h)
        return EXIT_OK
    lam = _number(args.lam) if args.lam else None
    if args.which == "sym":
        lam = lam if lam is not None else default_lambda(args.n)
        report.parameters["n"] = args.n
        report.parameters["lambda"] = format_number(lam)
        emb = symmetric_embedding(build_example_group(lam), args.n)
        report.outcome["blocks"] = len(emb.blocks)
        report.outcome["order"] = emb.order
        report.outcome["generator_words"] = [w.format(("r", "s")) for w in emb.words]
        if args.out_prefix:
            for i, gen in enumerate(emb.generators):
                _write(report, f"{args.out_prefix}{i}.iet", gen)
        return EXIT_OK
    if args.which == "free-semigroup":
        lam = lam if lam is not None else default_lambda(1)
        report.parameters["depth"] = args.depth
        report.parameters["lambda"] = format_number(lam)
        ok = free_semigroup_check(build_example_group(lam), args.depth)
        report.outcome["distinct"] = ok
        report.outcome["words"] = 2 ** (args.depth + 1) - 2
        return EXIT_OK
    raise InputError(f"unknown example {args.which!r}")  # pragma: no cover


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ietlab", description=__doc__)
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("show", help="parse, canonicalize and reprint a map")
    q.add_argument("file")
    q.add_argument("-o", "--output")
    q.set_defaults(func=cmd_show)

    q = sub.add_parser("compose", help="compose two maps (apply the second file first)")
    q.add_argument("a")
    q.add_argument("b")
    q.add_argument("-o", "--output", required=True)
    q.set_defaults(func=cmd_compose)

    q = sub.add_parser("invert", help="invert a map")
    q.add_argument("file")
    q.add_argument("-o", "--output", required=True)
    q.set_defaults(func=cmd_invert)

    q = sub.add_parser("norm", help="proven upper bound on the discontinuity growth rate")
    q.add_argument("file")
    q.add_argument("--nmax", type=int, default=20)
    q.set_defaults(func=cmd_norm)

    q = sub.add_parser("minimal-model", help="conjugate model, linear growth verified up to --check")
    q.add_argument("file")
    q.add_argument("--depth", type=int, default=64, help="orbit search depth (default 64)")
    q.add_argument("--check", type=int, default=20, help="verify up to this power (default 20)")
    q.add_argument("--out-model")
    q.add_argument("--out-conjugator")
    q.set_defaults(func=cmd_minimal_model)

    q = sub.add_parser("drift", help="drift data of a permutation")
    q.add_argument("--perm", required=True, help="1-based images, e.g. '3,2,1'")
    q.set_defaults(func=cmd_drift)

    q = sub.add_parser("admissible", help="admissibility of a permutation")
    q.add_argument("--perm", required=True)
    q.set_defaults(func=cmd_admissible)

    q = sub.add_parser("relation-hunt", help="search for a relation certificate")
    q.add_argument("s")
    q.add_argument("t")
    q.add_argument("--q", type=int, required=True)
    q.add_argument("--kcap", type=int, default=16)
    q.add_argument("--out-witness")
    q.set_defaults(func=cmd_relation_hunt)

    q = sub.add_parser("rationalize", help="rational generators with the same marked ball")
    q.add_argument("--radius", type=int, required=True)
    q.add_argument("files", nargs="+")
    q.add_argument("--out-prefix", default="rational_g")
    q.set_defaults(func=cmd_rationalize)

    q = sub.add_parser("orbit-ball", help="exact orbit of a point under short words")
    q.add_argument("files", nargs="+")
    q.add_argument("--x", required=True, help="point, e.g. '1/2' or 'C:1/2'")
    q.add_argument("--radius", type=int, required=True)
    q.set_defaults(func=cmd_orbit_ball)

    q = sub.add_parser("finite-group", help="order of the group of q-rational maps")
    q.add_argument("files", nargs="+")
    q.add_argument("--cap", type=int, default=10 ** 6)
    q.set_defaults(func=cmd_finite_group)

    q = sub.add_parser("example", help="built-in constructions")
    ex = q.add_subparsers(dest="which", required=True)
    e = ex.add_parser("sym", help="symmetric group on n+2 blocks inside <r, s>")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--lambda", dest="lam", help="rotation amount literal")
    e.add_argument("--out-prefix", help="also write the block-swap generators")
    e.set_defaults(func=cmd_example, which="sym")
    e = ex.add_parser("free-semigroup", help="distinctness of positive words in r, srs")
    e.add_argument("--depth", type=int, required=True)
    e.add_argument("--lambda", dest="lam")
    e.set_defaults(func=cmd_example, which="free-semigroup")
    e = ex.add_parser("circle-2-3", help="three-piece map with a rolled-up circle")
    e.add_argument("--l", required=True)
    e.add_argument("--tau", required=True)
    e.add_argument("-o", "--output")
    e.set_defaults(func=cmd_example, which="circle-2-3")
    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    report = Report(args.command)
    try:
        code = args.func(args, report)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except SOFT_ERRORS as e:
        print(f"no result: {e}", file=sys.stderr)
        return EXIT_SOFT
    except INTERNAL_ERRORS as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except (IetError, TextFormatError, LiteralError, FieldMismatchError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    report.emit(args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
