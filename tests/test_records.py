"""The result and spec records are named tuples.  The three that check their
fields (TDistSpec, ReferenceScale, LotteryModel) check again when
``_replace`` or ``_make`` builds a new one, and every record keeps the repr
text it had as a dataclass."""

import pytest

from sigmatail.errors import DomainError
from sigmatail.gauss import gauss_tail
from sigmatail.magnitude import ONE, from_real
from sigmatail.scales import BUILTIN_SCALES, DEFAULT_LOTTERY, LotteryModel, ReferenceScale
from sigmatail.studentt import TDistSpec

BAD_REPLACEMENTS = [
    pytest.param(TDistSpec(3.0), {"nu": 1.0}, "standardized mode needs nu > 2", id="TDistSpec"),
    pytest.param(BUILTIN_SCALES[0], {"kind": "x"}, "kind must be one of", id="ReferenceScale"),
    pytest.param(DEFAULT_LOTTERY, {"win_probability": ONE},
                 "win probability must lie strictly in", id="LotteryModel"),
    pytest.param(TDistSpec(3.0), {"standardized": "no"},
                 "^standardized must be a bool, got str$", id="TDistSpec-standardized"),
    pytest.param(BUILTIN_SCALES[0], {"low": 1.0},
                 "^reference bounds must be Magnitudes$", id="ReferenceScale-float"),
    pytest.param(DEFAULT_LOTTERY, {"win_probability": 0.5},
                 "^win probability must be a Magnitude$", id="LotteryModel-float"),
]


@pytest.mark.parametrize("build,message", [
    (lambda: LotteryModel(0.5), "^win probability must be a Magnitude$"),
    (lambda: ReferenceScale("a", "years", 1.0, 2.0), "^reference bounds must be Magnitudes$"),
    (lambda: ReferenceScale("a", "years", from_real(1.0), 2.0),
     "^reference bounds must be Magnitudes$"),
    (lambda: TDistSpec(3.0, standardized="no"), "^standardized must be a bool, got str$"),
    (lambda: TDistSpec(3.0, 0), "^standardized must be a bool, got int$"),
    (lambda: TDistSpec(3.0, None), "^standardized must be a bool, got NoneType$"),
], ids=["lottery", "scale", "scale-high", "standardized-str", "standardized-int",
        "standardized-none"])
def test_field_of_the_wrong_type_is_a_domain_error(build, message):
    with pytest.raises(DomainError, match=message):
        build()


@pytest.mark.parametrize("record,fields,message", BAD_REPLACEMENTS)
def test_replace_checks_again(record, fields, message):
    with pytest.raises(DomainError, match=message):
        record._replace(**fields)


@pytest.mark.parametrize("record,fields,message", BAD_REPLACEMENTS)
def test_make_checks_again(record, fields, message):
    values = record._asdict()
    values.update(fields)
    with pytest.raises(DomainError, match=message):
        type(record)._make(values.values())


def test_replace_keeps_a_valid_record():
    spec = TDistSpec(3.0)._replace(standardized=False)
    assert spec == TDistSpec(3.0, standardized=False)
    assert type(spec) is TDistSpec


def test_repr_is_the_dataclass_text():
    assert repr(gauss_tail(25)) == (
        "TailResult(k=25.0, probability=Magnitude('3.05670e-138'), days_per_year=250, "
        "diagnostics=SeriesDiagnostics(path='asymptotic', terms_used=10, "
        "truncation_bound=7.210303859206017e-20))")
    assert repr(TDistSpec(3)) == "TDistSpec(nu=3, standardized=True)"
