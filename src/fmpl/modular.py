"""Exact arithmetic over prime fields and dense polynomials in F_p[T].

Field elements are plain ints in ``[0, p-1]``; polynomials store a dense
int64 coefficient array indexed by exponent.  All values are immutable
after construction, so they can be shared freely across sweep workers.
Every polynomial product goes through `mul_mod`, which is exact for every
p < MAX_PRIME and every length: short products run ``np.convolve``, long
ones a floating-point FFT on 11-bit limbs whose rounding error is bounded
below 1/2.  The table of inverses mod p has no Python loop over p: it is
one scatter over the powers of a primitive root, which a two-level table
builds in about 2 sqrt(p) Python steps.

Array reductions go through `reduce_mod(x, p)`, which computes
x - (x // p) * p in place.  numpy divides an int64 array by a scalar with
libdivide, so this costs about 1.9 ns per element at p = 7919, where `%`
costs 4.3 ns on non-negative values and 12 ns on mixed signs.  Its
precondition is |x| < 2^62: then (x // p) * p lies within p of x and
cannot overflow, and the result is the same as ``x % p`` on either sign.

Tables that depend on a prime (the inverse table here, and evaluate's
inverse-power and polynomial tables) are memoized by
`per_prime_cache` in one memo keyed first by the prime.  A sweep visits
each prime once, and a table's size grows with p, so a bound on the number
of entries would let memory grow with the prime range; the memo is bounded
in bytes instead.  The tables of the prime in use are always kept; those of
other primes stay while together they hold at most PRIME_CACHE_BYTES, and
past that whole primes are dropped, least recently used first, so checks
that switch between a few primes keep their hits.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from functools import lru_cache, wraps
from itertools import compress
from math import isqrt
from typing import Callable, Iterable, Union

import numpy as np

# Residues must fit a machine word so that a*b fits a signed 64-bit int.
MAX_PRIME = 1 << 31

_MR_BASES = (2, 3, 5, 7)  # deterministic for n < 3_215_031_751 > 2^31


@lru_cache(maxsize=256)
def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2^31."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13):
        if n == q:
            return True
        if n % q == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, ascending.

    A segmented sieve: only [max(lo, 2), hi] is sieved, by striking the
    multiples of the base primes q <= isqrt(hi), which come from a sieve of
    isqrt(hi) + 1 bytes.  Memory follows the width of the range, not hi.
    """
    lo = max(lo, 2)
    if hi < lo:
        return []
    root = isqrt(hi)
    base = bytearray([1]) * (root + 1)
    base[:2] = b"\x00\x00"
    for q in range(2, isqrt(root) + 1):
        if base[q]:
            base[q * q :: q] = bytes(len(range(q * q, root + 1, q)))
    segment = bytearray([1]) * (hi - lo + 1)
    for q in compress(range(root + 1), base):
        start = max(q * q, -(-lo // q) * q)
        segment[start - lo :: q] = bytes(len(range(start, hi + 1, q)))
    return list(compress(range(lo, hi + 1), segment))


def mod_inverse(a: int, p: int) -> int:
    """Inverse of a modulo p.

    Raises ZeroDivisionError for a divisible by p; upstream this signals a
    summand excluded by the coprime-denominator restriction.
    """
    try:
        return pow(a, -1, p)
    except ValueError:
        raise ZeroDivisionError(f"non-invertible residue {a % p} mod {p}") from None


def primitive_root(p: int) -> int:
    """The smallest generator g of the multiplicative group of F_p; 1 for p = 2.

    g generates when g^((p - 1) / q) != 1 for every prime q dividing p - 1
    (Shoup, A Computational Introduction to Number Theory and Algebra, on
    finding generators).  The prime factors of p - 1 come from trial
    division, at most isqrt(2^31) = 46,341 steps below MAX_PRIME.
    """
    if p == 2:
        return 1
    n, factors, q = p - 1, [], 2
    while q * q <= n:
        if n % q == 0:
            factors.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        factors.append(n)
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in factors):
        g += 1
    return g


def reduce_mod(x: np.ndarray, p: int) -> np.ndarray:
    """Reduce the int64 array x into [0, p) in place, and return it.

    Computes x - (x // p) * p, equal to x % p for |x| < 2^62 on either
    sign (see the module docstring); x may be a view.
    """
    q = x // p
    q *= p
    x -= q
    return x


def _power_table(t: int, n: int, p: int) -> np.ndarray:
    """The int64 array of t^e mod p for 0 <= e < n, given 0 <= t < p and n >= 1.

    A two-level table, t^(m i + j) = t^(m i) * t^j with m = isqrt(n - 1) + 1,
    takes about 2 sqrt(n) Python steps; each product is < p^2 < 2^62.
    """
    m = isqrt(n - 1) + 1
    low = [1]
    for _ in range(m):
        low.append(low[-1] * t % p)
    high = [1]
    for _ in range(-(-n // m) - 1):
        high.append(high[-1] * low[m] % p)
    return reduce_mod(np.array(high, dtype=np.int64)[:, None] * np.array(low[:m], dtype=np.int64), p).ravel()[:n]


# Bytes that the cached tables of primes other than the one in use may hold
# together before whole primes are dropped, least recently used first.
PRIME_CACHE_BYTES = 8 << 20
# What a cached value that is neither an array nor a ModPoly counts for.
SMALL_VALUE_BYTES = 64

CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def _value_nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, ModPoly):
        return value.coeffs.nbytes
    return SMALL_VALUE_BYTES


class _PrimeTables:
    """The memo behind per_prime_cache.

    ``by_prime`` maps each prime, least recently used first, to its entries
    {(function, args): value}; ``nbytes`` holds each prime's total size.
    ``entries`` is the dict of the prime in use, which is last in
    ``by_prime`` once it holds anything.
    """

    def __init__(self):
        self.by_prime: OrderedDict[int, dict] = OrderedDict()
        self.nbytes: dict[int, int] = {}
        self.total = 0
        self.current = None
        self.entries: dict = {}

    def enter(self, p: int) -> None:
        """Make p the prime in use, and drop other primes past the bound."""
        self.current = p
        if p in self.by_prime:
            self.by_prime.move_to_end(p)
            self.entries = self.by_prime[p]
        else:
            self.entries = {}
        kept = self.nbytes.get(p, 0)
        while self.total - kept > PRIME_CACHE_BYTES:
            dropped, _ = self.by_prime.popitem(last=False)
            self.total -= self.nbytes.pop(dropped)

    def store(self, key: tuple, value) -> None:
        """Add an entry for the prime in use."""
        if self.current not in self.by_prime:
            self.by_prime[self.current] = self.entries
            self.nbytes[self.current] = 0
        size = _value_nbytes(value)
        self.entries[key] = value
        self.nbytes[self.current] += size
        self.total += size

    def keys_of(self, fn: Callable) -> list[tuple[int, tuple]]:
        return [(p, key) for p, entries in self.by_prime.items() for key in entries if key[0] is fn]

    def drop(self, fn: Callable) -> None:
        """Remove fn's entries at every prime."""
        for p, key in self.keys_of(fn):
            size = _value_nbytes(self.by_prime[p].pop(key))
            self.nbytes[p] -= size
            self.total -= size
            if not self.by_prime[p]:
                del self.by_prime[p], self.nbytes[p]


_TABLES = _PrimeTables()
_MISSING = object()


def per_prime_cache(fn: Callable) -> Callable:
    """Memoize fn, whose last positional argument is the prime p, in the per-prime memo.

    All decorated functions share one memo keyed by p, then by (fn, the
    arguments).  The prime of the latest call is the prime in use, whose
    tables are always kept, however large.  Tables of other primes are kept
    while their total size is at most PRIME_CACHE_BYTES; past it, whole
    primes are dropped, least recently used first.  The bound is in bytes
    because a table's size grows with p: an entry count would keep more
    memory the larger the primes get.  An array counts its nbytes, a
    ModPoly its coefficients' nbytes, any other value SMALL_VALUE_BYTES.
    A call that raises caches nothing.  As with lru_cache, the wrapper has
    cache_info(), counting this function's hits and misses and its entries
    in currsize (maxsize is None), and cache_clear(), which removes this
    function's entries and counts only.
    """
    hits = misses = 0

    @wraps(fn)
    def wrapper(*args):
        nonlocal hits, misses
        tables, p, key = _TABLES, args[-1], (fn, args)
        if p != tables.current:
            tables.enter(p)
        value = tables.entries.get(key, _MISSING)
        if value is not _MISSING:
            hits += 1
            return value
        misses += 1
        value = fn(*args)
        if p != tables.current:
            tables.enter(p)
        tables.store(key, value)
        return value

    def cache_info() -> CacheInfo:
        return CacheInfo(hits, misses, None, len(_TABLES.keys_of(fn)))

    def cache_clear() -> None:
        nonlocal hits, misses
        hits = misses = 0
        _TABLES.drop(fn)

    wrapper.cache_info = cache_info
    wrapper.cache_clear = cache_clear
    return wrapper


@per_prime_cache
def inverse_table(p: int) -> np.ndarray:
    """Read-only int64 array inv with inv[0] = 0 and inv[a] = a^-1 mod p.

    With g = primitive_root(p), the powers pw[j] = g^j for 0 <= j < p - 1
    run once over every nonzero residue, and (g^j)^-1 = g^((-j) mod (p - 1)),
    so one scatter inv[pw[j]] = pw[(-j) mod (p - 1)] fills the table.  pw
    comes from _power_table in about 2 sqrt(p) Python steps, each product
    < p^2 < 2^62; nothing else is kept.
    """
    pw = _power_table(primitive_root(p), p - 1, p)
    inv = np.zeros(p, dtype=np.int64)
    inv[pw] = np.concatenate((pw[:1], pw[:0:-1]))  # pw[(-j) mod (p - 1)]
    inv.flags.writeable = False
    return inv


def ensure_prime(p: int) -> None:
    if not (2 <= p < MAX_PRIME) or not is_prime(p):
        raise ValueError(f"{p} is not a prime in the supported range")


LIMB_BITS = 11
# Shorter factor from which the FFT path beats np.convolve.  The direct cost
# is len_a * len_b multiply-adds, the FFT's grows with the padded length, so
# their ratio follows the shorter factor.  Measured with numpy 2.4 on a
# 2-core x86-64 machine, direct vs FFT: one limb (p = 1999), 256 x 256 in
# 0.068 vs 0.073 ms and 384 x 384 in 0.158 vs 0.092 ms; two limbs
# (p = 4999), 128 x 5000 in 0.66 vs 1.17 ms, 256 x 5000 in 1.30 vs 1.17 ms
# and 512 x 512 in 0.27 vs 0.24 ms.
FFT_MIN_LEN = 256
# Longest factor the FFT path may take; derived in mul_mod's docstring.
FFT_MAX_LEN = (1 << 29) // (13 * 22 + 3)


def mul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """The product of two coefficient arrays with entries in [0, p), mod p.

    Each input is split into L = ceil(bitlen(p - 1) / 11) limbs below 2^11
    (one for p - 1 < 2^11, two for p - 1 < 2^22, three up to 2^31), the
    2L - 1 limb-pair sums c_s = sum_{i + j = s} a_i * b_j are formed
    exactly, and the result is sum_s (c_s mod p) * (2^(11 s) mod p) mod p.
    Products with a factor shorter than FFT_MIN_LEN skip the split and take
    np.convolve on the whole coefficients while min(len) * (p - 1)^2 < 2^62
    keeps it inside int64.  Longer ones form c_s with np.fft: rfft of every
    limb, padded to n = 2^k, the pair products summed per s, one irfft per
    s, rounded.

    Float-error bound: for real x, y zero-padded to n = 2^k, a
    double-precision FFT convolution with twiddle factors correct to the
    unit roundoff eps = 2^-53 errs in each output by less than
    ||x||_2 ||y||_2 ((1 + eps)^3k (1 + eps sqrt 5)^(3k + 1) (1 + eps)^3k - 1)
    (Percival, Math. Comp. 72 (2003); Brent and Zimmermann, Modern Computer
    Arithmetic, section 3.3), which is below ||x||_2 ||y||_2 eps (13 k + 3).
    Limbs lie in [0, 2^11), and at three limbs the top one is below 2^9, so
    with both lengths at most m the pairs of one c_s have norm products
    summing to at most 2 m (2^11 - 1)^2 < 2^23 m.  Rounding is exact while
    2^23 m eps (13 k + 3) < 1/2, i.e. m (13 k + 3) < 2^29.  For m < 2^21
    the padded length is at most 2^22, so k <= 22, and every
    m <= FFT_MAX_LEN = 2^29 // 289 = 1,857,684 is exact.  Longer products
    take the same limb split through np.convolve, whose int64 sums stay
    below 3 min(len) 2^22.  At m = FFT_MAX_LEN on all-(p - 1) inputs the
    largest distance to an integer before rounding was 0.012 at
    p = 2^31 - 1 and 0.010 at p = 2^22 - 3.
    """
    la, lb = len(a), len(b)
    if min(la, lb) < FFT_MIN_LEN and min(la, lb) * (p - 1) ** 2 < 1 << 62:
        return reduce_mod(np.convolve(a, b), p)
    limbs = -(-(p - 1).bit_length() // LIMB_BITS)
    mask = (1 << LIMB_BITS) - 1
    a_limbs = [a >> (LIMB_BITS * i) & mask for i in range(limbs)]
    b_limbs = [b >> (LIMB_BITS * i) & mask for i in range(limbs)]
    length = la + lb - 1
    fft = min(la, lb) >= FFT_MIN_LEN and max(la, lb) <= FFT_MAX_LEN
    if fft:
        n = 1 << (length - 1).bit_length()
        a_limbs = [np.fft.rfft(x, n) for x in a_limbs]
        b_limbs = [np.fft.rfft(x, n) for x in b_limbs]
    pair_product = np.multiply if fft else np.convolve
    out = np.zeros(length, dtype=np.int64)
    for s in range(2 * limbs - 1):
        pairs = range(max(0, s - limbs + 1), min(s, limbs - 1) + 1)
        c = sum(pair_product(a_limbs[i], b_limbs[s - i]) for i in pairs)
        if fft:
            c = np.rint(np.fft.irfft(c, n)[:length]).astype(np.int64)
        out += reduce_mod(c, p) * pow(2, LIMB_BITS * s, p)
        reduce_mod(out, p)
    return out


class ModPoly:
    """Dense polynomial over F_p; ``coeffs[e]`` is the coefficient of T^e."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Union[Iterable[int], np.ndarray] = ()):
        """Reduce a copy of coeffs (|c| < 2^62) mod p and trim its trailing zeros."""
        ensure_prime(p)
        arr = reduce_mod(np.array(coeffs, dtype=np.int64), p)
        nz = np.flatnonzero(arr)
        n = nz[-1] + 1 if len(nz) else 0
        if n < len(arr):
            arr = arr[:n].copy()
        arr.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("ModPoly is immutable")

    @classmethod
    def zero(cls, p: int) -> "ModPoly":
        return cls(p)

    @classmethod
    def one(cls, p: int) -> "ModPoly":
        return cls(p, [1])

    @classmethod
    def constant(cls, p: int, c: int) -> "ModPoly":
        return cls(p, [c])

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def order(self) -> int:
        """Lowest exponent with nonzero coefficient, -1 for zero."""
        nz = np.nonzero(self.coeffs)[0]
        return int(nz[0]) if len(nz) else -1

    def __bool__(self) -> bool:
        return len(self.coeffs) > 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModPoly):
            return NotImplemented
        return self.p == other.p and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        return hash((self.p, self.coeffs.tobytes()))

    def _require_same_modulus(self, other: "ModPoly") -> None:
        if self.p != other.p:
            raise ValueError(f"modulus mismatch: {self.p} != {other.p}")

    def __add__(self, other: "ModPoly") -> "ModPoly":
        self._require_same_modulus(other)
        n = max(len(self.coeffs), len(other.coeffs))
        out = np.zeros(n, dtype=np.int64)
        out[: len(self.coeffs)] += self.coeffs
        out[: len(other.coeffs)] += other.coeffs
        return ModPoly(self.p, out)

    def __sub__(self, other: "ModPoly") -> "ModPoly":
        self._require_same_modulus(other)
        n = max(len(self.coeffs), len(other.coeffs))
        out = np.zeros(n, dtype=np.int64)
        out[: len(self.coeffs)] += self.coeffs
        out[: len(other.coeffs)] -= other.coeffs
        return ModPoly(self.p, out)

    def __mul__(self, other: "ModPoly") -> "ModPoly":
        self._require_same_modulus(other)
        if not self or not other:
            return ModPoly.zero(self.p)
        return ModPoly(self.p, mul_mod(self.coeffs, other.coeffs, self.p))

    def scaled(self, c: int) -> "ModPoly":
        return ModPoly(self.p, self.coeffs * (c % self.p))

    def shifted(self, n: int) -> "ModPoly":
        """Multiply by T^n."""
        if not self or n == 0:
            return self
        return ModPoly(self.p, np.concatenate([np.zeros(n, dtype=np.int64), self.coeffs]))

    def evaluate(self, t: int) -> int:
        """The value at t in F_p, equal to Horner's rule.

        The powers t^e for e < n = len(coeffs) come from _power_table in
        about 2 sqrt(n) Python steps.  Each term c_e t^e is reduced below p,
        so a sum of at most 2^32 of them stays < 2^32 p < 2^63; longer
        arrays are summed in slices of 2^32.
        """
        p, n = self.p, len(self.coeffs)
        if n == 0:
            return 0
        terms = reduce_mod(self.coeffs * _power_table(t % p, n, p), p)
        return sum(int(terms[i : i + (1 << 32)].sum()) for i in range(0, n, 1 << 32)) % p

    def __str__(self) -> str:
        if not self:
            return "0"
        parts = []
        for e, c in enumerate(self.coeffs.tolist()):
            if c == 0:
                continue
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append("T" if c == 1 else f"{c}*T")
            else:
                parts.append(f"T^{e}" if c == 1 else f"{c}*T^{e}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"ModPoly(p={self.p}, {self})"
