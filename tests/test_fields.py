from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from homhopf import ExactError, GF, QQ, is_prime
from homhopf.fields import PRIME_BOUND, PrimeField


def test_rational_basics():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(-3, 2)) == Fraction(-2, 3)
    assert QQ.coerce(5) == Fraction(5)
    with pytest.raises(ExactError):
        QQ.inv(Fraction(0))
    with pytest.raises(ExactError):
        QQ.div(Fraction(1), Fraction(0))


def test_prime_field_basics():
    f = GF(7)
    assert f.add(5, 4) == 2
    assert f.mul(3, 5) == 1
    assert f.inv(3) == 5
    assert f.neg(0) == 0
    with pytest.raises(ExactError):
        f.inv(0)
    with pytest.raises(ExactError):
        f.coerce(Fraction(1, 2))


def test_gf_requires_prime():
    for bad in (0, 1, 4, 6, 9, 15):
        with pytest.raises(ExactError):
            PrimeField(bad)
    assert GF(2).characteristic == 2
    assert GF(11).inv(5) == 9
    assert GF(7) is GF(7)


def test_is_prime_small():
    primes = [p for p in range(50) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def _trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(20000) if is_prime(n)] == [
        n for n in range(20000) if _trial_division(n)
    ]


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2-7, 2-31 and 2-37 respectively; the
    # last is 399165290221 * 798330580441, and only the base 41 exposes it
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    assert is_prime(2**61 - 1)
    assert GF(2**61 - 1).mul(2**60, 2) == 1


def test_moduli_beyond_the_bound_are_refused():
    with pytest.raises(ExactError, match=str(PRIME_BOUND)):
        is_prime(PRIME_BOUND)
    with pytest.raises(ExactError, match=str(PRIME_BOUND)):
        PrimeField(10**40 + 7)


def test_parse_format_examples():
    assert QQ.parse("-3/2") == Fraction(-3, 2)
    assert QQ.format(Fraction(-3, 2)) == "-3/2"
    assert QQ.parse("+4") == 4
    assert GF(7).parse("-1") == 6
    assert GF(7).format(13) == "6"


@pytest.mark.parametrize("bad", ["1/0", "x", "1.5", "2/-3", "", "3 /2"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ExactError):
        QQ.parse(bad)


@pytest.mark.parametrize("text", ["٣", "1٣", "+٣", "1/٣", "１"])
def test_parse_reads_only_ascii_digits(text):
    # str.isdigit and a regex \d also match Arabic-Indic and fullwidth digits
    with pytest.raises(ExactError, match="^malformed rational scalar"):
        QQ.parse(text)
    if "/" not in text:
        with pytest.raises(ExactError, match=r"^malformed GF\(7\) scalar"):
            GF(7).parse(text)


@pytest.mark.parametrize("text", ["9" * 5000, "-" + "9" * 5000, "1/" + "9" * 5000, "9" * 5000 + "/2"])
def test_parse_refuses_an_oversized_integer_by_its_digit_count(text):
    parsers = (QQ.parse, GF(7).parse) if "/" not in text else (QQ.parse,)
    for parse in parsers:
        with pytest.raises(ExactError) as info:
            parse(text)
        assert str(info.value) == "integer of 5000 digits is too long"
    assert QQ.parse("9" * 4300) == 10**4300 - 1
    assert GF(7).parse("-" + "9" * 4300) == -(10**4300 - 1) % 7


@given(st.fractions())
def test_rational_roundtrip(x):
    assert QQ.parse(QQ.format(x)) == x


@given(st.integers(min_value=-100, max_value=100))
def test_gf_roundtrip(n):
    f = GF(7)
    x = f.coerce(n)
    assert f.parse(f.format(x)) == x
    assert 0 <= x < 7
