from functools import lru_cache
from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fmpl import modular
from fmpl.evaluate import eval_fmp, eval_fmp_triple, eval_zeta, eval_zeta_variant
from fmpl.modular import (
    FFT_MAX_LEN,
    FFT_MIN_LEN,
    ModPoly,
    ensure_prime,
    inverse_table,
    is_prime,
    mod_inverse,
    mul_mod,
    per_prime_cache,
    primes_in_range,
    primitive_root,
    reduce_mod,
)
from fmpl.sweep import run_sweep
from fmpl.words import Index

I = Index.of

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 101]


def test_is_prime_small():
    assert [n for n in range(2, 32) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    assert not is_prime(0) and not is_prime(1)
    assert is_prime(2**31 - 1)  # largest supported prime


def test_primes_in_range():
    assert primes_in_range(5, 20) == [5, 7, 11, 13, 17, 19]
    assert primes_in_range(8, 10) == []
    assert primes_in_range(2, 2) == [2]


def test_primes_in_range_edges():
    assert primes_in_range(20, 5) == [] and primes_in_range(3, 2) == []
    assert primes_in_range(-10, 1) == [] and primes_in_range(0, 0) == []
    assert primes_in_range(-10, 2) == [2] and primes_in_range(0, 12) == [2, 3, 5, 7, 11]
    assert primes_in_range(3, 3) == [3] and primes_in_range(4, 4) == []


def test_primes_in_range_at_the_top_of_the_supported_range():
    lo, hi = 2**31 - 2000, 2**31 - 1
    assert primes_in_range(lo, hi) == [n for n in range(lo, hi + 1) if is_prime(n)]


@lru_cache(maxsize=None)
def _full_sieve(hi: int) -> bytes:
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for q in range(2, isqrt(hi) + 1):
        if sieve[q]:
            sieve[q * q :: q] = b"\x00" * len(sieve[q * q :: q])
    return bytes(sieve)


@settings(max_examples=200, deadline=None)
@given(st.integers(-5, 10**5), st.integers(-5, 10**5))
def test_segmented_sieve_matches_a_full_sieve(lo, hi):
    sieve = _full_sieve(10**5)
    assert primes_in_range(lo, hi) == [n for n in range(max(lo, 0), hi + 1) if sieve[n]]


def test_mod_inverse_examples():
    assert mod_inverse(1, 7) == 1
    assert mod_inverse(2, 5) == 3
    assert mod_inverse(4, 7) == 2


def test_mod_inverse_rejects_zero():
    with pytest.raises(ZeroDivisionError, match="non-invertible"):
        mod_inverse(0, 7)
    with pytest.raises(ZeroDivisionError):
        mod_inverse(14, 7)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_mod_inverse_involution(p):
    for a in range(1, p):
        b = mod_inverse(a, p)
        assert a * b % p == 1
        assert mod_inverse(b, p) == a


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_inverse_table_matches_scalar(p):
    table = inverse_table(p)
    assert table[0] == 0
    assert all(table[a] == mod_inverse(a, p) for a in range(1, p))


def _assert_inverse_table(p):
    table = inverse_table(p)
    assert table.dtype == np.int64 and table.shape == (p,)
    assert not table.flags.writeable
    assert table[0] == 0
    assert np.all(table[1:] * np.arange(1, p) % p == 1)


def test_inverse_table_every_prime_below_20000():
    for p in primes_in_range(2, 20000):
        _assert_inverse_table(p)


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 10**7))
def test_inverse_table_sampled_primes(n):
    while not is_prime(n):
        n -= 1
    _assert_inverse_table(n)


def test_inverse_table_smallest_primes():
    assert primitive_root(2) == 1 and primitive_root(3) == 2
    assert inverse_table(2).tolist() == [0, 1]
    assert inverse_table(3).tolist() == [0, 1, 2]


@pytest.mark.parametrize(
    "p, factors",
    [
        (2**31 - 1, (2, 3, 7, 11, 31, 151, 331)),  # its least primitive root is 7
        (2147483629, (2, 3, 59652323)),  # the next prime below it
        (2147483579, (2, 1073741789)),  # a safe prime, (p - 1) / 2 prime
    ],
)
def test_primitive_root_has_order_p_minus_1(p, factors):
    n = p - 1
    for q in factors:
        assert is_prime(q) and n % q == 0
        while n % q == 0:
            n //= q
    assert n == 1, "factors must list every prime factor of p - 1"
    g = primitive_root(p)
    assert pow(g, p - 1, p) == 1
    assert all(pow(g, (p - 1) // q, p) != 1 for q in factors)
    assert all(any(pow(h, (p - 1) // q, p) == 1 for q in factors) for h in range(2, g))


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from((2, 3, 2**31 - 1)),
    values=st.lists(st.integers(-(2**62) + 1, 2**62 - 1), min_size=1, max_size=40),
)
@example(p=2**31 - 1, values=[2**62 - 1, -(2**62) + 1, -1, 0, 2**31 - 1, -(2**31) + 1])
def test_reduce_mod_matches_remainder_on_both_signs(p, values):
    x = np.array(values, dtype=np.int64)
    expected = x % p
    view = x[::-1]  # a view is reduced in place through to its base
    assert reduce_mod(view, p) is view
    assert np.array_equal(x, expected)


def test_poly_leaves_its_callers_array_unchanged():
    coeffs = np.array([-3, 7, 12, 5, 0, 0], dtype=np.int64)
    f = ModPoly(5, coeffs)
    assert coeffs.tolist() == [-3, 7, 12, 5, 0, 0] and coeffs.flags.writeable
    assert f.coeffs.tolist() == [2, 2, 2]
    g = ModPoly(5, coeffs[:4])
    assert coeffs.tolist() == [-3, 7, 12, 5, 0, 0] and g == f
    assert not np.shares_memory(g.coeffs, coeffs)


def test_poly_trailing_zeros_trimmed():
    f = ModPoly(5, [1, 2, 0, 0])
    assert f.degree == 1
    assert ModPoly(5, [0, 0]) == ModPoly.zero(5)
    assert ModPoly.zero(5).degree == -1


def test_poly_mul_identity_and_absorbing():
    g = ModPoly(3, [0, 1, 2])
    assert ModPoly.zero(3) * g == ModPoly.zero(3)
    assert ModPoly.one(3) * g == g


def test_poly_mul_example():
    f = ModPoly(3, [0, 1, 2])  # T + 2T^2
    assert f * f == ModPoly(3, [0, 0, 1, 1, 1])  # T^2 + T^3 + T^4


def test_poly_mul_modulus_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        ModPoly(3, [1]) * ModPoly(5, [1])


def test_poly_eval_examples():
    f = ModPoly(3, [0, 1, 2])
    assert ModPoly.zero(3).evaluate(2) == 0
    assert f.evaluate(1) == 0
    assert f.evaluate(2) == 1


def test_poly_degree_order_shift_scale():
    f = ModPoly(5, [0, 0, 3, 0, 1])
    assert (f.order, f.degree) == (2, 4)
    assert f.shifted(3) == ModPoly(5, [0, 0, 0, 0, 0, 3, 0, 1])
    assert f.scaled(2) == ModPoly(5, [0, 0, 1, 0, 2])
    assert f.scaled(0) == ModPoly.zero(5)


def test_poly_str():
    assert str(ModPoly.zero(7)) == "0"
    assert str(ModPoly.one(7)) == "1"
    assert str(ModPoly(3, [0, 1, 2])) == "T + 2*T^2"
    assert str(ModPoly(7, [3, 0, 1])) == "3 + T^2"


def test_poly_immutable():
    f = ModPoly(5, [1, 2])
    with pytest.raises(AttributeError):
        f.p = 7
    with pytest.raises(ValueError):
        f.coeffs[0] = 3


def test_poly_mul_exact_at_largest_prime():
    p = 2**31 - 1
    f = ModPoly(p, [1, 1])
    assert f * f == ModPoly(p, [1, 2, 1])
    g = ModPoly(p, [p - 1] * 3)
    assert g * g == ModPoly(p, [1, 2, 3, 2, 1])


def test_non_prime_modulus_rejected_on_every_call():
    # the primality result is cached; a cached "no" must still raise
    for _ in range(2):
        for n in (0, 1, 4, 561, 2**31 - 2, 2**31):
            with pytest.raises(ValueError, match="not a prime"):
                ModPoly(n, [1])
            with pytest.raises(ValueError, match="not a prime"):
                ensure_prime(n)


def _all_max_product(la, lb, p):
    """Python-int product of all-(p-1) inputs: c_t = #{i + j = t} * (p-1)^2 mod p."""
    return [min(t + 1, la, lb, la + lb - 1 - t) * (p - 1) ** 2 % p for t in range(la + lb - 1)]


def _int_product(a, b, p):
    """Python-int product by Kronecker substitution into one big integer."""
    width = 2 * (p - 1).bit_length() + max(len(a), len(b)).bit_length()
    pack = lambda xs: sum(int(x) << (width * i) for i, x in enumerate(xs))
    c = pack(a) * pack(b)
    mask = (1 << width) - 1
    return [((c >> (width * t)) & mask) % p for t in range(len(a) + len(b) - 1)]


def test_fft_length_limit_follows_the_error_bound():
    # mul_mod: lengths m <= FFT_MAX_LEN pad to at most 2^22, and m (13 k + 3) < 2^29
    assert 2 * FFT_MAX_LEN - 1 <= 1 << 22
    assert FFT_MAX_LEN * (13 * 22 + 3) < 1 << 29 <= (FFT_MAX_LEN + 1) * (13 * 22 + 3)


@pytest.mark.parametrize("p", [2**31 - 1, 2**22 - 3])
@pytest.mark.parametrize("la,lb", [(FFT_MIN_LEN, FFT_MIN_LEN), (1 << 16, 1 << 16), (1 << 17, 3000)])
def test_mul_mod_fft_path_exact_on_all_max_inputs(p, la, lb):
    a = np.full(la, p - 1, dtype=np.int64)
    b = np.full(lb, p - 1, dtype=np.int64)
    assert mul_mod(a, b, p).tolist() == _all_max_product(la, lb, p)


@pytest.mark.parametrize("p", [2**31 - 1, 2**22 - 3, 65521])
def test_mul_mod_matches_python_ints(p):
    rng = np.random.default_rng(p)
    for la, lb in [(1, 1), (3, 200), (255, 2000), (256, 256), (2000, 1500)]:
        a = rng.integers(0, p, la)
        b = rng.integers(0, p, lb)
        a[::7] = p - 1
        assert mul_mod(a, b, p).tolist() == _int_product(a, b, p), (la, lb)


def test_mul_mod_limb_split_direct_beyond_fft_limit(monkeypatch):
    # a shorter limit sends these products down the limb-split np.convolve path
    monkeypatch.setattr(modular, "FFT_MAX_LEN", 600)

    def no_fft(*args, **kwargs):
        raise AssertionError("FFT path taken beyond FFT_MAX_LEN")

    monkeypatch.setattr(np.fft, "rfft", no_fft)
    rng = np.random.default_rng(7)
    for p in (2**31 - 1, 2**22 - 3):
        a = np.full(700, p - 1, dtype=np.int64)
        b = np.full(300, p - 1, dtype=np.int64)
        assert mul_mod(a, b, p).tolist() == _all_max_product(700, 300, p)
        a = rng.integers(0, p, 1000)
        b = rng.integers(0, p, 400)
        assert mul_mod(a, b, p).tolist() == _int_product(a, b, p)


@settings(max_examples=60, deadline=None)
@given(
    la=st.integers(1, 3000),
    lb=st.integers(1, 3000),
    p=st.sampled_from([2, 3, 101, 65521, 1000003]),
    seed=st.integers(0, 2**32 - 1),
)
@example(la=FFT_MIN_LEN - 1, lb=3000, p=1000003, seed=0)
@example(la=FFT_MIN_LEN, lb=FFT_MIN_LEN, p=65521, seed=0)
def test_mul_mod_bit_identical_to_convolve(la, lb, p, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, la)
    b = rng.integers(0, p, lb)
    a[rng.random(la) < 0.5] = p - 1
    expected = np.convolve(a, b) % p
    out = mul_mod(a, b, p)
    assert out.dtype == np.int64
    assert np.array_equal(out, expected)


coeff_lists = st.lists(st.integers(0, 100), min_size=0, max_size=12)


@given(a=coeff_lists, b=coeff_lists, c=coeff_lists, t=st.integers(0, 100))
def test_poly_ring_properties(a, b, c, t):
    p = 101
    f, g, h = ModPoly(p, a), ModPoly(p, b), ModPoly(p, c)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f * g).evaluate(t) == f.evaluate(t) * g.evaluate(t) % p


def _horner(f, t):
    acc = 0
    for c in reversed(f.coeffs.tolist()):
        acc = (acc * t + c) % f.p
    return acc


@pytest.mark.parametrize("p", (2, 101, 2**31 - 1))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_evaluate_matches_horner(p, data):
    coeffs = data.draw(st.lists(st.integers(0, p - 1), max_size=300))
    t = data.draw(st.one_of(st.sampled_from((0, 1, p - 1, p, 2 * p, -1)), st.integers(-(p**2), p**2)))
    f = ModPoly(p, coeffs)
    assert f.evaluate(t) == _horner(f, t % p)


def test_evaluate_zero_and_long():
    p = 2**31 - 1
    assert ModPoly.zero(p).evaluate(5) == 0
    f = ModPoly(p, np.full(10007, p - 1, dtype=np.int64))
    for t in (0, 1, 2, p - 1, 12345):
        assert f.evaluate(t) == _horner(f, t), t


# -- the per-prime memo ------------------------------------------------------


@pytest.fixture
def memo(monkeypatch):
    """A fresh, empty per-prime memo for the test."""
    monkeypatch.setattr(modular, "_TABLES", modular._PrimeTables())
    return modular._TABLES


@per_prime_cache
def _table(kind, n, p):
    """A value of n entries cached at p: an int64 array, a ModPoly, or else the int n."""
    if kind == "array":
        table = np.zeros(n, dtype=np.int64)
        table.flags.writeable = False
        return table
    if kind == "poly":
        return ModPoly(p, [1] * n)
    return n


@per_prime_cache
def _other(n, p):
    return n


def test_prime_in_use_is_kept_whatever_its_size(memo, monkeypatch):
    monkeypatch.setattr(modular, "PRIME_CACHE_BYTES", 8000)
    _table("array", 1000, 5)  # 8,000 bytes: 5 stays when 7 is in use
    _table("int", 0, 7)
    _table("poly", 2000, 5)  # 5 is in use again and now holds 24,000 bytes
    assert list(memo.by_prime) == [7, 5] and memo.nbytes == {7: modular.SMALL_VALUE_BYTES, 5: 24000}
    hits = _table.cache_info().hits
    assert _table("array", 1000, 5) is _table("array", 1000, 5)
    assert _table("poly", 2000, 5) is _table("poly", 2000, 5)
    assert _table.cache_info().hits == hits + 4
    _table("int", 0, 7)  # 7 is in use; 5's tables pass the bound and go
    assert list(memo.by_prime) == [7]


def test_other_primes_are_dropped_whole_least_recently_used_first(memo, monkeypatch):
    monkeypatch.setattr(modular, "PRIME_CACHE_BYTES", 2 * 800)
    for p in (2, 3, 5):
        _table("array", 50, p)  # two tables of 400 bytes at each prime
        _table("poly", 50, p)
    assert list(memo.by_prime) == [2, 3, 5]
    _table("array", 50, 2)  # a hit makes 2 the prime in use and the most recent
    assert list(memo.by_prime) == [3, 5, 2]
    _table("array", 50, 7)  # 3, 5 and 2 hold 2,400 bytes: 3 goes, both its tables
    assert list(memo.by_prime) == [5, 2, 7]
    assert memo.nbytes == {5: 800, 2: 800, 7: 400} and memo.total == 2000
    misses = _table.cache_info().misses
    _table("poly", 50, 3)
    assert _table.cache_info().misses == misses + 1


@pytest.mark.parametrize("kind, size", [("array", 80), ("poly", 80), ("int", modular.SMALL_VALUE_BYTES)])
def test_entries_are_sized_in_bytes(monkeypatch, kind, size):
    # a prime not in use is kept at a bound of its size, dropped one byte below
    for bound, kept in ((size, [5, 7]), (size - 1, [7])):
        monkeypatch.setattr(modular, "_TABLES", modular._PrimeTables())
        monkeypatch.setattr(modular, "PRIME_CACHE_BYTES", bound)
        _table(kind, 10, 5)
        _other(0, 7)
        assert list(modular._TABLES.by_prime) == kept


def test_cache_info_and_cache_clear_are_per_function(memo):
    _table.cache_clear()
    _other.cache_clear()
    _table("int", 3, 5)
    _table("int", 3, 5)
    _table("int", 3, 7)
    _other(1, 5)
    assert _table.cache_info() == modular.CacheInfo(1, 2, None, 2)
    assert _other.cache_info() == modular.CacheInfo(0, 1, None, 1)
    _table.cache_clear()
    assert _table.cache_info() == modular.CacheInfo(0, 0, None, 0)
    assert _other.cache_info() == modular.CacheInfo(0, 1, None, 1)
    assert memo.nbytes == {5: modular.SMALL_VALUE_BYTES} and list(memo.by_prime) == [5]
    _other(1, 5)
    assert _other.cache_info() == modular.CacheInfo(1, 1, None, 1)


def test_composite_modulus_raises_on_every_call(memo):
    for _ in range(3):
        for n in (4, 561, 2**31 - 2):
            with pytest.raises(ValueError, match="not a prime"):
                eval_fmp(I(1, 2), n)
            with pytest.raises(ValueError, match="not a prime"):
                eval_zeta(I(2), n)
            with pytest.raises(ValueError, match="not a prime"):
                eval_fmp_triple(I(1), I(2), I(1), n)
    assert memo.total == 0 and not memo.by_prime


def _values_and_sweeps(primes):
    """Every evaluator's values over a small grid, the primes innermost, and two sweeps."""
    indices = [I(), I(1), I(2), I(1, 2), I(2, 1, 1), I(1, 2, 1)]
    values = []
    for k in indices:
        for p in primes:
            values.append((eval_zeta(k, p), eval_fmp(k, p).coeffs.tobytes()))
            values.extend(eval_zeta_variant(i, k, p) for i in range(1, k.depth + 1))
            values.append(eval_fmp_triple(k, I(1), I(2), p).coeffs.tobytes())
    for check, params in (("stuffle", {"l": I(1, 1), "r": I(2)}), ("prop24", {"i": 2, "k": I(1, 2, 1)})):
        report = run_sweep(check, params, 5, 400, jobs=1).to_json_dict()
        report.pop("duration_ms")
        values.append(report)
    return values


def test_values_do_not_depend_on_the_bound(monkeypatch):
    primes = (5, 7, 11, 101, 1009, 7)
    cached = _values_and_sweeps(primes)
    monkeypatch.setattr(modular, "PRIME_CACHE_BYTES", 0)
    assert _values_and_sweeps(primes) == cached
