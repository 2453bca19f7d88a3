import json
import math
import random
import sys
import time
from fractions import Fraction

import pytest

from ietlab import approx, cli, core
from ietlab.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, EXIT_SOFT, main
from ietlab.core import (
    CIRCLE,
    Domain,
    Iet,
    circle_rotation,
    from_lengths,
    interval_rotation,
)
from ietlab.field import LpInternalError, QuadNum
from ietlab.menagerie import SYM_N_CAP, example_2_3
from ietlab.relations import CapExceededError, drift_direction, drifted
from ietlab.approx import BALL_RADIUS_CAP
from ietlab.relations import KCAP_CAP, Q_CAP
from ietlab.suspension import CHECK_CAP, DEPTH_CAP, NMAX_CAP, MinimalModelError
from ietlab.textio import TextFormatError, parse_iet, serialize_iet

from randgen import long_connection_map, random_iet

R2 = QuadNum.sqrt(2)
ALPHA = R2 - 1


# -- text format --------------------------------------------------------------------


def test_round_trip_random_maps():
    rng = random.Random(71)
    for _ in range(50):
        h = random_iet(rng, 7)
        assert parse_iet(serialize_iet(h)) == h


def test_round_trip_multi_component_and_target():
    r = circle_rotation(2, ALPHA)
    assert parse_iet(serialize_iet(r)) == r
    # a map with distinct source and target domains
    cut = Iet(Domain.circle(1, "C"), Domain.interval(1, "K"), [(0, 0, 1, 0, 0)])
    text = serialize_iet(cut)
    assert "target" in text
    assert parse_iet(text) == cut


def test_serialize_is_fixed_point_on_canonical_text():
    h = example_2_3(Fraction(3, 4), R2 / 4)
    text = serialize_iet(h)
    assert serialize_iet(parse_iet(text)) == text


def test_parse_rejects_overlap_and_gap():
    bad_overlap = """
field sqrt(2)
domain
interval I 1/1
piece I 0/1 1/2 -> I 0/1
piece I 1/4 3/4 -> I 1/4
"""
    with pytest.raises(TextFormatError):
        parse_iet(bad_overlap)
    bad_gap = """
field sqrt(2)
domain
interval I 1/1
piece I 0/1 1/2 -> I 0/1
"""
    with pytest.raises(TextFormatError):
        parse_iet(bad_gap)


def test_parse_canonicalizes_mergeable_pieces():
    text = """
field sqrt(2)
domain
interval I 1/1
piece I 0/1 1/3 -> I 1/3
piece I 1/3 1/3 -> I 2/3
piece I 2/3 1/3 -> I 0/1
"""
    h = parse_iet(text)
    assert len(h.pieces) == 2
    assert h == interval_rotation(Fraction(1, 3))
    assert "piece I 0/1 2/3 -> I 1/3" in serialize_iet(h)


def test_parse_syntax_error_carries_line_and_column():
    text = "field sqrt(2)\ndomain\ninterval I 1/1\npiece I zero 1/1 -> I 0/1\n"
    with pytest.raises(TextFormatError) as err:
        parse_iet(text)
    assert err.value.line == 4
    assert err.value.col == 9


def test_parse_rejects_literal_outside_declared_field():
    text = "field sqrt(2)\ndomain\ninterval I 1/1\npiece I 0/1 1/2+1/4*sqrt(3) -> I 0/1\n"
    with pytest.raises(TextFormatError):
        parse_iet(text)


@pytest.mark.parametrize("d", ["4", "1", "0", "-3"])
def test_parse_rejects_rational_field_header(tmp_path, capsys, d):
    # sqrt(D) must be irrational, else the header re-serializes as sqrt(2)
    text = f"field sqrt({d})\ndomain\ninterval I 1/1\npiece I 0/1 1/1 -> I 0/1\n"
    with pytest.raises(TextFormatError) as err:
        parse_iet(text)
    assert err.value.line == 1
    f = tmp_path / "h.iet"
    f.write_text(text)
    assert main(["show", str(f)]) == EXIT_INPUT


def test_parse_rejects_unknown_component_reference():
    text = "field sqrt(2)\ndomain\ninterval I 1/1\npiece X 0/1 1/1 -> I 0/1\n"
    with pytest.raises(TextFormatError) as err:
        parse_iet(text)
    assert err.value.line == 4


MAP_DOC = """field sqrt(2)
domain
interval I 3/4
interval J 1/4
piece I 0/1 3/4-1/4*sqrt(2) -> I 0/1+1/4*sqrt(2)
piece I 3/4-1/4*sqrt(2) 0/1+1/4*sqrt(2) -> I 0/1
piece J 0/1 1/4 -> J 0/1
"""


def test_each_error_names_the_column_of_its_own_token():
    parse_iet(MAP_DOC)
    # the id 'e' also occurs inside the keyword 'piece'
    with pytest.raises(TextFormatError) as err:
        parse_iet(MAP_DOC.replace("piece J 0/1", "piece e 0/1"))
    assert (err.value.line, err.value.col) == (7, 7)
    assert str(err.value) == "line 7, col 7: no component 'e'"
    # the bad literal '1/' also occurs inside the good '1/4' before it
    with pytest.raises(TextFormatError) as err:
        parse_iet(MAP_DOC.replace("-> J 0/1", "-> J 1/"))
    assert (err.value.line, err.value.col) == (7, 22)


def test_a_component_of_length_zero_names_its_line_and_column(tmp_path, capsys):
    text = "field sqrt(2)\ndomain\ninterval I 0/1\npiece I 0/1 1/1 -> I 0/1\n"
    with pytest.raises(TextFormatError) as err:
        parse_iet(text)
    assert (err.value.line, err.value.col) == (3, 12)
    assert "positive length" in str(err.value)
    with pytest.raises(TextFormatError) as err:
        parse_iet(MAP_DOC.replace("interval J 1/4", "interval J  -1/4"))
    assert (err.value.line, err.value.col) == (4, 13)
    f = tmp_path / "zero.iet"
    f.write_text(text)
    assert main(["show", str(f)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"error: {f}: line 3, col 12: ")


def test_block_errors_name_the_line_that_causes_them(tmp_path, capsys):
    text = "field sqrt(2)\ndomain\ninterval I 1/2\ninterval I 1/2\npiece I 0/1 1/2 -> I 0/1\n"
    with pytest.raises(TextFormatError) as err:
        parse_iet(text)
    assert (err.value.line, err.value.col) == (4, 10)
    assert str(err.value) == "line 4, col 10: duplicate component id 'I'"
    text = "field sqrt(2)\ndomain\ninterval I 1/1\npiece I 0/1 1/1 -> I 0/1\n"
    for bad, col in (("0/1", 13), ("-1/2", 13)):
        with pytest.raises(TextFormatError) as err:
            parse_iet(text.replace("I 0/1 1/1 ->", f"I 0/1 {bad} ->"))
        assert (err.value.line, err.value.col) == (4, col)
        assert "non-positive length" in str(err.value)
    f = tmp_path / "dup.iet"
    f.write_text(text.replace("interval I 1/1", "interval I 1/2\ninterval I 1/2"))
    assert main(["show", str(f)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"error: {f}: line 4, col 10: duplicate")


def test_a_line_after_the_pieces_is_bad_input(tmp_path, capsys):
    block = "circle-cert angle 0/1+1/4*sqrt(2) circle C 3/4\npart I 0/1 3/4\nend\n"
    f = tmp_path / "cert.iet"
    f.write_text(MAP_DOC + block)
    assert main(["show", str(f)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(
        f"error: {f}: line 8: unexpected directive 'circle-cert'"
    )


@pytest.mark.parametrize(
    "old, new, line",
    [
        ("field sqrt(2)", "field sqrt(1_0)", 1),
        ("field sqrt(2)", "field sqrt(\u0662)", 1),
        ("piece J 0/1", "piece J \u0660/1", 7),
        ("-> J 0/1", "-> J 0/\u0661", 7),
        ("3/4-1/4*sqrt(2) ->", "3/4-1/4*sqrt(\u0662) ->", 5),
    ],
)
def test_the_text_format_takes_ascii_digits_only(old, new, line):
    parse_iet(MAP_DOC)
    with pytest.raises(TextFormatError) as err:
        parse_iet(MAP_DOC.replace(old, new))
    assert err.value.line == line


def test_zero_denominators_are_bad_input(tmp_path, capsys):
    f = tmp_path / "zero.iet"
    f.write_text("field sqrt(2)\ndomain\ninterval I 1/0\npiece I 0/1 1/1 -> I 0/1\n")
    assert main(["show", str(f)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"error: {f}: line 3, col 12: zero denominator")
    r = write_map(tmp_path, "r.iet", interval_rotation(Fraction(1, 3)))
    for argv in (
        ["orbit-ball", r, "--x", "1/0", "--radius", "1"],
        ["orbit-ball", r, "--x", "I:0/0+1/1*sqrt(2)", "--radius", "1"],
        ["example", "circle-2-3", "--l", "1/1+1/0*sqrt(2)", "--tau", "1/4"],
    ):
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: zero denominator")


# -- command line -------------------------------------------------------------------


def write_map(tmp_path, name, h):
    p = tmp_path / name
    p.write_text(serialize_iet(h))
    return str(p)


def test_cli_compose_and_invert(tmp_path, capsys):
    a = write_map(tmp_path, "a.iet", interval_rotation(Fraction(1, 3)))
    out = str(tmp_path / "c.iet")
    assert main(["compose", a, a, "-o", out]) == EXIT_OK
    assert parse_iet((tmp_path / "c.iet").read_text()) == interval_rotation(Fraction(2, 3))
    inv = str(tmp_path / "inv.iet")
    assert main(["invert", a, "-o", inv]) == EXIT_OK
    assert parse_iet((tmp_path / "inv.iet").read_text()) == interval_rotation(Fraction(2, 3))


def test_cli_admissible_and_drift(capsys):
    assert main(["admissible", "--perm", "1,3,2"]) == EXIT_OK
    assert "admissible: False" in capsys.readouterr().out
    assert main(["drift", "--perm", "3,2,1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "dr_min: 2" in out and "dr_max: 4" in out
    assert main(["drift", "--perm", "1,3,2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "admissible: False" in out and "fixed_coordinate: 1" in out


def test_cli_minimal_model_and_norm(tmp_path, capsys):
    f = write_map(tmp_path, "r.iet", interval_rotation(ALPHA))
    model = str(tmp_path / "m.iet")
    conj = str(tmp_path / "g.iet")
    code = main(
        ["minimal-model", f, "--depth", "16", "--check", "8", "--out-model", model, "--out-conjugator", conj]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "upper: 0" in out and "circle" in out
    assert "irrational_circles: " in out
    hm = parse_iet((tmp_path / "m.iet").read_text())
    g = parse_iet((tmp_path / "g.iet").read_text())
    h = interval_rotation(ALPHA)
    assert g * h * ~g == hm
    assert main(["norm", f, "--nmax", "6"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "lower: 0" in out and "upper: 0" in out


def test_cli_norm_claims_no_lower_bound(tmp_path, capsys):
    # d(h^n) = 3n for n <= 40, but the growth rate of this map is 0
    f = write_map(tmp_path, "h.iet", long_connection_map())
    assert main(["norm", f, "--nmax", "40"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "lower: 0" in out and "upper: 3" in out


def test_cli_certifies_the_long_connection_at_rate_0(tmp_path, capsys, monkeypatch):
    # checks off: the checked run of the same certificate is in test_suspension
    monkeypatch.setattr(core, "CHECKED", False)
    f = write_map(tmp_path, "h.iet", long_connection_map())
    assert main(["--json", "minimal-model", f, "--check", "2500"]) == EXIT_OK
    outcome = json.loads(capsys.readouterr().out)["outcome"]
    assert (outcome["upper"], outcome["linear_up_to"], outcome["search_depth"]) == (0, 2500, 4096)


def test_cli_minimal_model_says_what_it_proves(tmp_path, capsys):
    # the rate of this map is 0: at --check 20 only |h| <= 3 is proven
    f = write_map(tmp_path, "h.iet", long_connection_map())
    assert main(["minimal-model", f, "--check", "20"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "upper: 3" in lines and "linear_up_to: 20" in lines
    assert not [line for line in lines if line.startswith("norm")]
    assert main(["--json", "minimal-model", f, "--check", "20"]) == EXIT_OK
    outcome = json.loads(capsys.readouterr().out)["outcome"]
    assert (outcome["upper"], outcome["linear_up_to"]) == (3, 20)
    assert "norm" not in outcome


def test_cli_minimal_model_names_the_irrational_circles(tmp_path, capsys):
    # example 2.3 rolls [0, l) up into a circle turned by tau: irrational
    # when tau / l is, of order 3 when tau / l = 1/3
    for tau, named in ((R2 / 4, 1), (Fraction(1, 4), 0)):
        f = write_map(tmp_path, "h.iet", example_2_3(Fraction(3, 4), tau))
        model = str(tmp_path / "m.iet")
        assert main(["--json", "minimal-model", f, "--out-model", model]) == EXIT_OK
        ids = json.loads(capsys.readouterr().out)["outcome"]["irrational_circles"].split()
        assert len(ids) == named
        comps = parse_iet((tmp_path / "m.iet").read_text()).source.components
        for cid in ids:
            (comp,) = [c for c in comps if c.cid == cid]
            assert (comp.kind, comp.length) == (CIRCLE, Fraction(3, 4))


def test_cli_model_components_resolve_the_irrational_circles(tmp_path, capsys):
    # no --out-model: the report alone says which component each id names
    f = write_map(tmp_path, "h.iet", example_2_3(Fraction(3, 4), R2 / 4))
    assert main(["minimal-model", f]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "model_components: I.0=circle:3/4 I.1=interval:1/4" in lines
    assert "irrational_circles: I.0" in lines
    assert main(["--json", "minimal-model", f]) == EXIT_OK
    outcome = json.loads(capsys.readouterr().out)["outcome"]
    comps = dict(c.split("=") for c in outcome["model_components"].split())
    assert [comps[cid] for cid in outcome["irrational_circles"].split()] == ["circle:3/4"]


def test_cli_relation_hunt(tmp_path, capsys):
    from ietlab.relations import drift_direction, drifted

    s = write_map(tmp_path, "s.iet", from_lengths((2, 1), [Fraction(1, 2), Fraction(1, 2)]))
    t0 = from_lengths((3, 2, 1), [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)])
    t = write_map(tmp_path, "t.iet", drifted(t0, Fraction(1, 64), drift_direction((3, 2, 1))))
    wit = str(tmp_path / "u.iet")
    assert main(["relation-hunt", s, t, "--q", "2", "--kcap", "8", "--out-witness", wit]) == EXIT_OK
    out = capsys.readouterr().out
    assert "found: True" in out and "word:" in out
    assert parse_iet((tmp_path / "u.iet").read_text()).is_identity()


def test_cli_relation_hunt_large_q(tmp_path, capsys):
    # lcm(1..20) = 232,792,560: the word s^e is one run, never written out
    s = write_map(tmp_path, "s.iet", from_lengths((2, 1), [Fraction(1, 2), Fraction(1, 2)]))
    t0 = from_lengths((3, 2, 1), [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)])
    t = write_map(tmp_path, "t.iet", drifted(t0, Fraction(1, 64), drift_direction((3, 2, 1))))
    start = time.monotonic()
    assert main(["--json", "relation-hunt", s, t, "--q", "20"]) == EXIT_OK
    assert time.monotonic() - start < 30
    outcome = json.loads(capsys.readouterr().out)["outcome"]
    assert outcome["exponent"] == 232_792_560
    assert outcome["letters"] == 4 * 232_792_560 + 4
    assert outcome["runs"] == 8
    assert outcome["word"] == "s^-232792560 t s^-232792560 t^-1 s^232792560 t s^232792560 t^-1"


def test_cli_relation_hunt_soft_failure(tmp_path, capsys):
    s = write_map(tmp_path, "s.iet", interval_rotation(ALPHA))
    t = write_map(
        tmp_path,
        "t.iet",
        from_lengths((3, 2, 1), [ALPHA / 2, Fraction(1, 3), 1 - ALPHA / 2 - Fraction(1, 3)]),
    )
    code = main(["relation-hunt", s, t, "--q", "2", "--kcap", "2"])
    out = capsys.readouterr().out
    if code == EXIT_SOFT:
        assert "found: False" in out
    else:
        assert code == EXIT_OK


def test_cli_orbit_ball_and_finite_group(tmp_path, capsys):
    f = write_map(tmp_path, "r.iet", interval_rotation(Fraction(1, 3)))
    assert main(["orbit-ball", f, "--x", "0/1", "--radius", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "size: 3" in out
    assert "amplitudes: 2" in out and "bound: 25" in out  # (2R + 1)^M with R = 2, M = 2
    assert main(["finite-group", f, "--cap", "100"]) == EXIT_OK
    assert "order: 3" in capsys.readouterr().out


def test_cli_rationalize(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    f = write_map(tmp_path, "g.iet", interval_rotation(ALPHA))
    assert main(["rationalize", "--radius", "2", f, "--out-prefix", "rg"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "grid:" in out and "group_size:" in out
    g2 = parse_iet((tmp_path / "rg0.iet").read_text())
    assert all(x.is_rational() for x in (p.length for p in g2.pieces))


def test_cli_example_commands(tmp_path, capsys):
    assert main(["example", "sym", "--n", "1"]) == EXIT_OK
    assert "order: 6" in capsys.readouterr().out
    assert main(["example", "free-semigroup", "--depth", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "distinct: True" in out and "words: 14" in out
    target = str(tmp_path / "e.iet")
    assert main(["example", "circle-2-3", "--l", "1/2", "--tau", "1/4", "-o", target]) == EXIT_OK
    h = parse_iet((tmp_path / "e.iet").read_text())
    assert h == example_2_3(Fraction(1, 2), Fraction(1, 4))


def test_reports_print_exact_integers_of_any_size(capsys):
    # 1700! has 4,766 digits: CPython 3.11 refuses str() above 4,300 by default
    big = math.factorial(1700)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        digits = str(big)
    finally:
        sys.set_int_max_str_digits(limit)
    for as_json, line in ((False, f"order: {digits}\n"), (True, f'"order": {digits}}}')):
        report = cli.Report("finite-group")
        report.outcome["order"] = big
        report.emit(as_json)
        assert line in capsys.readouterr().out
        assert sys.get_int_max_str_digits() == limit  # the limit is back


def test_cli_exit_codes_on_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.iet"
    bad.write_text("field sqrt(2)\ndomain\ninterval I 1/1\npiece I 0/1 1/2 -> I 0/1\n")
    assert main(["show", str(bad)]) == EXIT_INPUT
    assert main(["norm", str(tmp_path / "missing.iet")]) == EXIT_INPUT
    assert main(["admissible", "--perm", "fish"]) == EXIT_INPUT
    assert main(["example", "circle-2-3", "--l", "1/4", "--tau", "1/2"]) == EXIT_INPUT
    r = write_map(tmp_path, "r.iet", interval_rotation(Fraction(1, 3)))
    assert main(["rationalize", "--radius", "-1", r]) == EXIT_INPUT
    dom = Domain.interval(2)
    swap = write_map(tmp_path, "swap.iet", Iet(dom, dom, [(0, 0, 1, 0, 1), (0, 1, 1, 0, 0)]))
    assert main(["finite-group", swap]) == EXIT_INPUT
    assert main(["rationalize", "--radius", "1", swap]) == EXIT_INPUT
    assert "unit interval" in capsys.readouterr().err


def test_cli_maps_over_two_fields_are_bad_input(tmp_path, capsys):
    a = write_map(tmp_path, "a.iet", interval_rotation(ALPHA))
    b = write_map(tmp_path, "b.iet", interval_rotation(QuadNum.sqrt(3) - 1))
    out = str(tmp_path / "c.iet")
    for argv in (
        ["rationalize", "--radius", "2", a, b],
        ["compose", a, b, "-o", out],
        ["orbit-ball", a, b, "--x", "0/1", "--radius", "2"],
    ):
        assert main(argv) == EXIT_INPUT
        assert "cannot mix sqrt" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["minimal-model", "{h}", "--depth", str(DEPTH_CAP + 1)],
        ["minimal-model", "{h}", "--check", str(CHECK_CAP + 1)],
        ["relation-hunt", "{h}", "{h}", "--q", "2", "--kcap", str(KCAP_CAP + 1)],
        ["relation-hunt", "{h}", "{h}", "--q", str(Q_CAP + 1)],
        ["orbit-ball", "{h}", "--x", "1/3", "--radius", str(BALL_RADIUS_CAP + 1)],
        ["example", "sym", "--n", str(SYM_N_CAP + 1)],
    ],
    ids=["depth", "check", "kcap", "q", "radius", "sym"],
)
def test_cli_knob_caps_exit_1_before_any_work(tmp_path, capsys, argv):
    h = write_map(tmp_path, "h.iet", long_connection_map())
    start = time.monotonic()
    assert main([arg.format(h=h) for arg in argv]) == EXIT_SOFT
    assert "above" in capsys.readouterr().err
    assert time.monotonic() - start < 5


def test_cli_orbit_ball_stops_at_the_point_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(approx, "BALL_CAP", 50)
    g = write_map(tmp_path, "g.iet", interval_rotation(ALPHA))
    assert main(["orbit-ball", g, "--x", "1/3", "--radius", "24"]) == EXIT_OK  # 49 points
    capsys.readouterr()
    assert main(["orbit-ball", g, "--x", "1/3", "--radius", "25"]) == EXIT_SOFT
    assert "more than 50 points" in capsys.readouterr().err


def test_cli_exit_codes_on_failed_search_and_internal_error(tmp_path, capsys, monkeypatch):
    f = write_map(tmp_path, "r.iet", interval_rotation(Fraction(1, 3)))
    assert main(["finite-group", f, "--cap", "1"]) == EXIT_SOFT  # group of order 3
    # grid and word caps are checked before the work starts
    huge = write_map(tmp_path, "huge.iet", interval_rotation(Fraction(1, 10 ** 9 + 7)))
    start = time.monotonic()
    assert main(["finite-group", huge, "--cap", "10"]) == EXIT_SOFT
    assert "grid" in capsys.readouterr().err
    g2 = write_map(
        tmp_path,
        "g2.iet",
        from_lengths((3, 2, 1), [Fraction(1, 4), ALPHA / 4, Fraction(3, 4) - ALPHA / 4]),
    )
    assert main(["rationalize", "--radius", "12", f, g2]) == EXIT_SOFT
    assert "words" in capsys.readouterr().err
    assert time.monotonic() - start < 5
    start = time.monotonic()
    assert main(["example", "free-semigroup", "--depth", "40"]) == EXIT_SOFT
    assert "words" in capsys.readouterr().err
    assert time.monotonic() - start < 5
    start = time.monotonic()
    assert main(["norm", g2, "--nmax", str(NMAX_CAP + 1)]) == EXIT_SOFT
    assert "cap" in capsys.readouterr().err
    assert time.monotonic() - start < 5

    def raiser(error):
        def run(*args, **kwargs):
            raise error

        return run

    h = interval_rotation(ALPHA)
    monkeypatch.setattr(cli, "minimal_model", raiser(MinimalModelError(20, h, 64)))
    assert main(["minimal-model", f]) == EXIT_SOFT
    monkeypatch.setattr(cli, "relation_certificate", raiser(CapExceededError("cap 10")))
    assert main(["relation-hunt", f, f, "--q", "2"]) == EXIT_SOFT
    monkeypatch.setattr(cli, "rationalize", raiser(LpInternalError("degenerate dual basis")))
    assert main(["rationalize", "--radius", "1", f]) == EXIT_INTERNAL
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "internal error: degenerate dual basis"


def test_cli_failed_self_checks_exit_3(tmp_path, capsys, monkeypatch):
    a = write_map(tmp_path, "a.iet", interval_rotation(Fraction(1, 3)))
    out = str(tmp_path / "c.iet")
    real = Iet._trusted
    monkeypatch.setattr(core, "CHECKED", True)
    for how in (lambda ps: ps[::-1], lambda ps: ps[:-1]):  # disagreeing, not a partition
        monkeypatch.setattr(
            Iet, "_trusted", staticmethod(lambda f, s, t, ps: real(f, s, t, how(ps)))
        )
        assert main(["compose", a, a, "-o", out]) == EXIT_INTERNAL
        assert capsys.readouterr().err.startswith("internal error: trusted construction")
    monkeypatch.setattr(Iet, "_trusted", real)
    # a 9-cycle and a transposition of the cells of the grid 1/9 generate S_9
    r9 = write_map(tmp_path, "r9.iet", interval_rotation(Fraction(1, 9)))
    ninth = Fraction(1, 9)
    swap = write_map(tmp_path, "swap.iet", from_lengths((2, 1, 3), [ninth, ninth, 7 * ninth]))
    assert main(["finite-group", r9, swap]) == EXIT_OK
    assert capsys.readouterr().out == "order: 362880\n"
    monkeypatch.setattr(approx, "_giant_order", lambda gens, n: 181440)
    assert main(["finite-group", r9, swap]) == EXIT_INTERNAL
    assert "chain disagrees" in capsys.readouterr().err


def test_cli_json_report_deterministic(tmp_path, capsys):
    f = write_map(tmp_path, "r.iet", interval_rotation(Fraction(1, 3)))
    outs = []
    for _ in range(2):
        assert main(["--json", "orbit-ball", f, "--x", "0/1", "--radius", "2"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"command", "inputs", "parameters", "outcome", "witnesses", "timing"}
        del data["timing"]
        outs.append(json.dumps(data, sort_keys=True))
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["outcome"]["size"] == 3
