import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import factorial

import pytest

from ineqcert import exact
from ineqcert.exact import bernoulli, zeta_even_ratio
from ineqcert.errors import DomainError
from ineqcert.interval import Interval, pi_enclose

from oracles import (bernoulli_akiyama_tanigawa, bernoulli_boustrophedon,
                     bernoulli_recurrence)


def test_bernoulli_examples():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_odd_indices_vanish():
    for n in range(3, 41, 2):
        assert bernoulli(n) == 0


def test_bernoulli_against_recurrence_oracle():
    oracle = bernoulli_recurrence(300)
    for n in range(301):
        assert bernoulli(n) == oracle[n], n


def test_bernoulli_against_akiyama_tanigawa():
    oracle = bernoulli_akiyama_tanigawa(60)
    for n in range(61):
        assert bernoulli(n) == oracle[n], n


def test_bernoulli_against_boustrophedon():
    # the Seidel boustrophedon is the route the tangent-number recurrence
    # replaced; both must agree through B_1002
    oracle = bernoulli_boustrophedon(1002)
    for n in range(1003):
        assert bernoulli(n) == oracle[n], n


def test_bernoulli_sign_law():
    # (-1)^(n-1) B_2n > 0 for 1 <= n <= 100
    for n in range(1, 101):
        assert (-1) ** (n - 1) * bernoulli(2 * n) > 0, n


def test_bernoulli_negative_index_rejected():
    with pytest.raises(DomainError):
        bernoulli(-1)


def _von_staudt_clausen_holds(m):
    # the denominator of B_2m is the product of the primes p with (p-1) | 2m,
    # and B_2m + sum of 1/p over those primes is an integer
    primes = [d + 1 for d in range(1, 2 * m + 1)
              if (2 * m) % d == 0 and all((d + 1) % q for q in range(2, d))]
    b = bernoulli(2 * m)
    den = 1
    for p in primes:
        den *= p
    rest = b + sum(Fraction(1, p) for p in primes)
    return b.denominator == den and rest.denominator == 1


def test_bernoulli_von_staudt_clausen():
    for m in range(1, 501):
        assert _von_staudt_clausen_holds(m), m


def _tangent_oracle(m_max):
    # T_m = (-1)^(m-1) B_2m 4^m (4^m - 1) / (2m), from an independent route
    b = bernoulli_recurrence(2 * m_max)
    return [(-1) ** (m - 1) * b[2 * m] * 4 ** m * (4 ** m - 1) / (2 * m)
            for m in range(1, m_max + 1)]


def test_tangent_examples():
    assert [exact.tangent(m) for m in range(1, 7)] == [1, 2, 16, 272, 7936, 353792]
    assert all(type(exact.tangent(m)) is int for m in range(1, 40))
    with pytest.raises(DomainError):
        exact.tangent(0)


def test_bernoulli_resumes_from_a_column_left_behind(monkeypatch):
    # an interrupted extension stores its column last, so the cached column
    # can lag the tangent list; the next extension must catch up without
    # appending
    exact.tangent(8)
    monkeypatch.setattr(exact, "_TAN", exact._TAN[:5])
    monkeypatch.setattr(exact, "_COL", (1, [1]))
    assert len(exact._TAN) == 5
    assert [exact.tangent(m) for m in range(1, 31)] == _tangent_oracle(30)
    assert exact._COL[0] == len(exact._TAN) - 1 == 30
    assert [bernoulli(n) for n in range(61)] == bernoulli_recurrence(60)


def test_bernoulli_thread_purity(monkeypatch):
    # threads race on extending a fresh tangent list to T_600 (B_1200); a
    # lost update would shift the entries, which von Staudt-Clausen catches
    monkeypatch.setattr(exact, "_TAN", exact._TAN[:2])
    monkeypatch.setattr(exact, "_COL", (1, [1]))
    indices = [1200 - 2 * (i % 4) for i in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(bernoulli, n) for n in indices]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [bernoulli(n) for n in indices]
    for m in range(1, 601):
        assert _von_staudt_clausen_holds(m), m


def test_zeta_even_ratio_examples():
    assert zeta_even_ratio(1) == Fraction(1, 6)
    assert zeta_even_ratio(2) == Fraction(1, 90)
    assert zeta_even_ratio(3) == Fraction(1, 945)
    with pytest.raises(DomainError):
        zeta_even_ratio(0)


def test_zeta_cross_check_against_partial_sums():
    # zeta_even_ratio(q)*pi^(2q) must be consistent with the direct sum
    # S_K <= zeta(2q) <= S_K + K^(1-2q)/(2q-1) (integral tail bound)
    pi_iv = pi_enclose(Fraction(1, 10 ** 40))
    K = 100
    for q in range(1, 21):
        z = pi_iv ** (2 * q) * zeta_even_ratio(q)
        s = sum(Fraction(1, k ** (2 * q)) for k in range(1, K + 1))
        tail = Fraction(1, K ** (2 * q - 1) * (2 * q - 1))
        assert z.intersects(Interval(s, s + tail)), q


def test_bernoulli_magnitude_law():
    # |B_2n| * (2*pi_lo)^(2n) <= 4 * (2n)! for 1 <= n <= 100
    two_pi_lo = 2 * pi_enclose(Fraction(1, 10 ** 30)).lo
    for n in range(1, 101):
        assert abs(bernoulli(2 * n)) * two_pi_lo ** (2 * n) <= 4 * factorial(2 * n), n

