import math

import pytest
from hypothesis import example, given, strategies as st

from sigmatail import gauss
from sigmatail.errors import DomainError
from sigmatail.magnitude import Magnitude, ONE, ZERO, from_real, parse, pow_int
from sigmatail.scales import (
    BUILTIN_SCALES, DEFAULT_LOTTERY, LotteryModel, ReferenceScale,
    compare_to_references, load_reference_scales, lottery_equivalent, order_gap,
)


class TestLotteryEquivalent:
    def test_true_25_sigma_probability(self):
        assert lottery_equivalent(parse("3.057e-138")) == (21, 22)

    def test_percent_figure_gives_same_bracket(self):
        assert lottery_equivalent(parse("3.057e-136")) == (21, 22)

    def test_consecutive_day_odds(self):
        assert lottery_equivalent(parse("9.345e-272")) == (42, 43)

    def test_exact_power_boundary(self):
        # q^1 >= p exactly; closed on the left by convention
        assert lottery_equivalent(from_real(4e-7)) == (1, 2)

    def test_probability_one(self):
        assert lottery_equivalent(ONE) == (0, 1)

    def test_custom_model(self):
        model = LotteryModel(from_real(1e-3))
        assert lottery_equivalent(from_real(1e-6), model) == (2, 3)

    def test_rejects_zero_and_above_one(self):
        with pytest.raises(DomainError):
            lottery_equivalent(ZERO)
        with pytest.raises(DomainError):
            lottery_equivalent(from_real(1.5))

    def test_model_validation(self):
        with pytest.raises(DomainError):
            LotteryModel(from_real(1.0))
        with pytest.raises(DomainError):
            LotteryModel(ZERO)

    def test_from_gauss_tail(self):
        assert lottery_equivalent(gauss.gauss_tail(25.0).probability) == (21, 22)

    @pytest.mark.parametrize(("lp", "n"), [
        (-825.3342611186928, 129), (-850.9260211533809, 133),
        (-876.5177811880691, 137), (-902.1095412227572, 141),
    ])
    def test_floor_slip_down(self, lp, n):
        # lp is the double just above n * lq: lp / lq rounds to n, but
        # n * lq < lp, so q**n < p and the guard steps n down by one
        lq = DEFAULT_LOTTERY.win_probability.log10_value
        assert math.floor(lp / lq) == n and n * lq < lp
        assert lottery_equivalent(Magnitude(lp)) == (n - 1, n)


@given(st.floats(min_value=-300.0, max_value=-1e-6))
@example(-205220.32371816426)  # floor(lp / lq) is 32075, one below n
def test_lottery_bracket_verifies_in_log_domain(lp):
    p = Magnitude(lp)
    n, n1 = lottery_equivalent(p)
    assert n1 == n + 1
    q = DEFAULT_LOTTERY.win_probability
    assert pow_int(q, n) >= p
    assert pow_int(q, n1) < p


class TestOrderGap:
    def test_hundred_thousand_year_gap(self):
        assert order_gap(parse("1.309e+135"), parse("1e+5")) == 130

    def test_gap_from_computed_occurrence_period(self):
        years = gauss.gauss_tail(25.0).occurrence_years
        assert order_gap(years, parse("1e+5")) == 130

    def test_same_value(self):
        x = parse("2.5e10")
        assert order_gap(x, x) == 0

    def test_fat_tail_echo(self):
        assert order_gap(parse("3.057e-138"), parse("3.057e-36")) == -102

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            order_gap(ZERO, ONE)
        with pytest.raises(DomainError):
            order_gap(ONE, ZERO)


@given(st.floats(min_value=-200.0, max_value=200.0),
       st.floats(min_value=-200.0, max_value=200.0))
def test_order_gap_floor_asymmetry(la, lb):
    a, b = Magnitude(la), Magnitude(lb)
    assert order_gap(a, b) + order_gap(b, a) in (0, -1)


class TestBuiltinScales:
    def test_exactly_six_entries(self):
        assert len(BUILTIN_SCALES) == 6

    def test_cited_values(self):
        table = {s.name: s for s in BUILTIN_SCALES}
        ice = table["end of the last Ice Age"]
        assert ice.kind == "years" and ice.low == from_real(1e4) == ice.high
        sapiens = table["emergence of Homo sapiens"]
        assert sapiens.kind == "years" and sapiens.low == from_real(1e6)
        multi = table["origin of multicellular life"]
        assert multi.kind == "years" and multi.low == from_real(6e8)
        bang = table["time since the Big Bang"]
        assert bang.kind == "years"
        assert bang.low == from_real(1.2e10) and bang.high == from_real(1.4e10)
        particles = table["particles in the universe"]
        assert particles.kind == "count"
        assert particles.low == Magnitude(73.0) and particles.high == Magnitude(85.0)
        lottery = table["single lottery win odds"]
        assert lottery.kind == "count" and lottery.low == from_real(4e-7)
        assert DEFAULT_LOTTERY.win_probability == from_real(4e-7)

    def test_scale_validation(self):
        with pytest.raises(DomainError):
            ReferenceScale("bad", "years", from_real(10.0), from_real(1.0))
        with pytest.raises(DomainError):
            ReferenceScale("bad", "epochs", ONE, ONE)
        with pytest.raises(DomainError):
            ReferenceScale("bad", "years", ZERO, ONE)


class TestCompareToReferences:
    def test_twenty_sigma_vs_particles(self):
        years = gauss.gauss_tail(20.0).occurrence_years
        comps = {c.name: c for c in compare_to_references(years)}
        particles = comps["particles in the universe"]
        assert particles.kind == "count"
        assert particles.ratio_high.as_float() == pytest.approx(14.53, rel=1e-2)

    def test_five_sigma_vs_ice_age(self):
        years = gauss.gauss_tail(5.0).occurrence_years
        comps = {c.name: c for c in compare_to_references(years)}
        # 13954 years against the 1e4-year scale
        assert comps["end of the last Ice Age"].ratio_low.as_float() == pytest.approx(
            1.3954, rel=1e-3)

    def test_identity_ratio(self):
        ref = ReferenceScale("self", "years", from_real(5e8), from_real(5e8))
        comp = compare_to_references(from_real(5e8), (ref,))[0]
        assert comp.ratio_low == ONE and comp.ratio_high == ONE

    def test_validation(self):
        with pytest.raises(DomainError):
            compare_to_references(ZERO)
        with pytest.raises(DomainError):
            compare_to_references(ONE, ())


class TestReferenceScaleFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "refs.csv"
        path.write_text(
            "# comment line\n"
            "my epoch,years,1.5e3,2.5e3\n"
            "\n"
            "grains of sand,count,1e18,1e24\n",
            encoding="utf-8",
        )
        scales = load_reference_scales(path)
        assert len(scales) == 2
        assert scales[0].name == "my epoch"
        assert scales[0].low == parse("1.5e3")
        assert scales[1].kind == "count"

    def test_field_count_error_names_line(self, tmp_path):
        path = tmp_path / "refs.csv"
        path.write_text("ok,years,1,2\nbroken,years,1\n", encoding="utf-8")
        with pytest.raises(DomainError, match="line 2"):
            load_reference_scales(path)

    def test_bad_value_error_names_line(self, tmp_path):
        path = tmp_path / "refs.csv"
        path.write_text("bad,years,abc,2\n", encoding="utf-8")
        with pytest.raises(DomainError, match="line 1"):
            load_reference_scales(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "refs.csv"
        path.write_text("# nothing here\n", encoding="utf-8")
        with pytest.raises(DomainError):
            load_reference_scales(path)

    def test_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "refs.csv"
        path.write_bytes(b"caf\xe9 years,years,1,2\n")
        with pytest.raises(DomainError, match="not UTF-8 text"):
            load_reference_scales(path)

    def test_bom_before_comment(self, tmp_path):
        path = tmp_path / "refs.csv"
        path.write_text("\ufeff# exported by a spreadsheet\nmy epoch,years,1.5e3,2.5e3\n",
                        encoding="utf-8")
        scales = load_reference_scales(path)
        assert len(scales) == 1 and scales[0].name == "my epoch"
