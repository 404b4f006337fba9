"""Exact arithmetic over prime fields and dense polynomials in F_p[T].

Field elements are plain ints in ``[0, p-1]``; polynomials store a dense
coefficient array in p's word (below), indexed by exponent.  All values
are immutable after construction, so they can be shared freely across
sweep workers.
Every polynomial product goes through `mul_mod`, which is exact for every
p < MAX_PRIME and every length: short products run ``np.convolve``, long
ones a floating-point FFT whose rounding error is bounded below 1/2.  Each
product splits its coefficients into the fewest limbs (at most three) for
which that bound holds at its own p and lengths (`mul_limbs`); one limb is
the whole coefficient, as for li_(2,1) * li_3 up to p = 21841.  A factor
longer than FFT_MAX_LEN, against one of at least FFT_MIN_LEN, is cut into
blocks whose FFT products are added at their offsets.  The table
of inverses mod p has no Python loop over p: it is one scatter over the
powers of a primitive root, which a two-level table builds in about
2 sqrt(p) Python steps.

`ModPoly(p, coeffs)` is the input boundary: it checks p, and copies and
reduces coeffs.  Tables that a kernel has already reduced into [0, p) become
polynomials through `ModPoly._from_reduced`, without a copy or a second
reduction: the products of `ModPoly.__mul__`, evaluate's eval_fmp and
eval_fmp_triple, and identities' eval_expression and _accumulate.
`ModPoly.text_chunks` gives str() of a polynomial in pieces, which the CLI
writes one by one.

The width rule.  Every table that depends on p holds residues below p in
`word(p)`, the narrowest integer type in which the product of two residues
is exact: int32 while (p - 1)^2 <= 2^31 - 1, that is for p <= 46,337, and
int64 above.  Each kernel writes its bound once, against the maximum of its
table's type (WORD_MAX): where a sum or product could pass it, the kernel
reduces first (evaluate's _window_step), sums in int64 (_dot_mod,
ModPoly.evaluate, mul_mod's np.convolve) or counts its adds (identities'
_fold).  Narrower words halve the memory traffic: on a 2-core x86-64
machine with numpy 2.4, reduce_mod took 0.50 ns per element in int32 and
1.2-1.3 ns in int64 at p = 7919 and 15013, and a product 0.14 ns against
0.29-0.33 ns (arrays of 2^16 entries, best of 7).

Array reductions go through `reduce_mod(x, p)`, which computes
x - (x // p) * p in place.  numpy divides an integer array by a scalar
with libdivide, where `%` cost 4.3 ns per element on non-negative int64
values and 12 ns on mixed signs.  Its precondition, for a type whose
maximum is M: |x| <= M // 2, or 0 <= x <= M.  Then (x // p) * p lies within
p of x, on the same side of 0, and cannot overflow, and the result is the
same as ``x % p`` on either sign.

Tables that depend on a prime (the inverse table here, and evaluate's
inverse-power and polynomial tables) are memoized by `per_prime_cache`,
which keeps the tables of the prime in use only.  It is the one gate for
p: it checks p (`ensure_prime`) before it builds or frees anything.  Each
prime frees the previous prime's tables and builds tables of about the
same sizes.  Left to its dynamic thresholds, glibc's malloc would trim the
freed heap top and mmap the larger tables afresh: on a 2-core x86-64
machine with glibc 2.36, `run_sweep("main", (2,1) x (3), 5..3000, jobs=1)`
took 22,140 minor page faults.  So importing this module fixes
M_MMAP_THRESHOLD at 32 MiB and M_TRIM_THRESHOLD at 64 MiB, and that sweep
takes about 270.
"""

from __future__ import annotations

import ctypes
from collections import namedtuple
from functools import lru_cache, wraps
from itertools import compress
from math import isqrt
from typing import Callable, Iterable, Iterator, Union

import numpy as np

# Residues must fit a machine word so that a*b fits a signed 64-bit int.
MAX_PRIME = 1 << 31

_INT32, _INT64 = np.dtype(np.int32), np.dtype(np.int64)
# The largest value of each word, by type; the kernels' bounds are written against it.
WORD_MAX = {_INT32: (1 << 31) - 1, _INT64: (1 << 63) - 1}

# Miller-Rabin bases, exact below each bound: 3,215,031,751 is the least
# strong pseudoprime to (2, 3, 5, 7), and 318,665,857,834,031,151,167,461
# > 2^64 the least to the twelve primes up to 37.
_MR_BASES = ((3_215_031_751, (2, 3, 5, 7)), (1 << 64, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)))


@lru_cache(maxsize=256)
def is_prime(n: int) -> bool:
    """Deterministic primality test for every int n < 2^64 (False below 2); ValueError at or above 2^64."""
    if n >= 1 << 64:
        raise ValueError(f"is_prime is exact only below 2^64, got {n}")
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
    for a in next(bases for bound, bases in _MR_BASES if n < bound):
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


def word(p: int) -> np.dtype:
    """The type of p's tables: int32 where (p - 1)^2 fits it (p <= 46,337), else int64; see the module docstring."""
    return _INT32 if (p - 1) ** 2 <= WORD_MAX[_INT32] else _INT64


def reduce_mod(x: np.ndarray, p: int) -> np.ndarray:
    """Reduce the signed integer array x into [0, p) in place, and return it.

    Computes x - (x // p) * p, equal to x % p for |x| <= M // 2, or
    0 <= x <= M, with M the maximum of x's type (see the module docstring);
    x may be a view.
    """
    q = x // p
    q *= p
    x -= q
    return x


def _power_table(t: int, n: int, p: int) -> np.ndarray:
    """The word(p) array of t^e mod p for 0 <= e < n, given 0 <= t < p and n >= 1.

    A two-level table, t^(m i + j) = t^(m i) * t^j with m = isqrt(n - 1) + 1,
    takes about 2 sqrt(n) Python steps; each product is a product of two
    residues, which the word holds.
    """
    m = isqrt(n - 1) + 1
    low = [1]
    for _ in range(m):
        low.append(low[-1] * t % p)
    high = [1]
    for _ in range(-(-n // m) - 1):
        high.append(high[-1] * low[m] % p)
    dtype = word(p)
    return reduce_mod(np.array(high, dtype=dtype)[:, None] * np.array(low[:m], dtype=dtype), p).ravel()[:n]


# See the module docstring.  Setting either threshold turns glibc's dynamic
# rule off, so both are set, to the values that rule reaches on 64-bit.
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):  # not glibc, or no C library to load
    pass
else:
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD, twice the mmap threshold

CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _PrimeTables:
    """The memo behind per_prime_cache: ``entries`` maps (function, args) to the value at ``current``."""

    def __init__(self):
        self.current = None
        self.entries: dict = {}

    def enter(self, p: int) -> None:
        """Make p the prime in use, with no entries."""
        self.current = p
        self.entries = {}


_TABLES = _PrimeTables()
_MISSING = object()


def per_prime_cache(fn: Callable) -> Callable:
    """Memoize fn, whose last positional argument is the prime p, in the per-prime memo.

    All decorated functions share one memo of the prime in use, the prime of
    the latest call, keyed by (fn, the arguments); its tables are kept however
    large.  A call at another prime checks p (ensure_prime) before it builds
    or frees anything, so a rejected p leaves the memo as it was; else it
    frees the tables and starts afresh: a return to an earlier prime
    recomputes.  A call that raises caches nothing.  As with lru_cache, the
    wrapper has cache_info(), counting this function's hits and misses and
    its entries at the prime in use in currsize (maxsize is None), and
    cache_clear(), which removes those entries and the counts.
    """
    hits = misses = 0

    @wraps(fn)
    def wrapper(*args):
        nonlocal hits, misses
        tables, p, key = _TABLES, args[-1], (fn, args)
        if p != tables.current:
            ensure_prime(p)
            tables.enter(p)
        value = tables.entries.get(key, _MISSING)
        if value is not _MISSING:
            hits += 1
            return value
        misses += 1
        value = fn(*args)
        if p != tables.current:
            tables.enter(p)
        tables.entries[key] = value
        return value

    def cache_info() -> CacheInfo:
        return CacheInfo(hits, misses, None, sum(key[0] is fn for key in _TABLES.entries))

    def cache_clear() -> None:
        nonlocal hits, misses
        hits = misses = 0
        entries = _TABLES.entries
        for key in [key for key in entries if key[0] is fn]:
            del entries[key]

    wrapper.cache_info = cache_info
    wrapper.cache_clear = cache_clear
    return wrapper


@per_prime_cache
def inverse_table(p: int) -> np.ndarray:
    """Read-only word(p) array inv with inv[0] = 0 and inv[a] = a^-1 mod p.

    With g = primitive_root(p), the powers pw[j] = g^j for 0 <= j < p - 1
    run once over every nonzero residue, and (g^j)^-1 = g^((-j) mod (p - 1)),
    so one scatter inv[pw[j]] = pw[(-j) mod (p - 1)] fills the table.  pw
    comes from _power_table in about 2 sqrt(p) Python steps; nothing else
    is kept.
    """
    pw = _power_table(primitive_root(p), p - 1, p)
    inv = np.zeros(p, dtype=pw.dtype)
    # numpy scatters through an int32 index array more slowly than through
    # an intp copy of it: 50 against 30 us at p = 14983
    inv[pw.astype(np.intp)] = np.concatenate((pw[:1], pw[:0:-1]))  # pw[(-j) mod (p - 1)]
    inv.flags.writeable = False
    return inv


def ensure_prime(p: int) -> None:
    if not (2 <= p < MAX_PRIME) or not is_prime(p):
        raise ValueError(f"{p} is not a prime in the supported range")


# Shorter factor from which the FFT path beats np.convolve.  The direct cost
# is len_a * len_b multiply-adds, the FFT's grows with the padded length, so
# their ratio follows the shorter factor.  Measured with numpy 2.4 on a
# 2-core x86-64 machine, direct vs FFT: one limb (p = 1999), 256 x 256 in
# 0.068 vs 0.073 ms and 384 x 384 in 0.158 vs 0.092 ms; two limbs
# (p = 4999, at 11 bits a limb), 128 x 5000 in 0.66 vs 1.17 ms, 256 x 5000
# in 1.30 vs 1.17 ms and 512 x 512 in 0.27 vs 0.24 ms.
FFT_MIN_LEN = 256
# Longest factor the FFT path may take; derived in mul_mod's docstring.
# Longer factors are cut into blocks of at most this length (_mul_blocks).
FFT_MAX_LEN = (1 << 29) // (13 * 22 + 3)
# Terms per piece of ModPoly.text_chunks.
TEXT_CHUNK_TERMS = 1 << 16


@lru_cache(maxsize=1024)
def _limb_pairs(p: int, limbs: int) -> int:
    """The largest sum over the limb pairs (i, s - i) of top_i * top_(s - i).

    Coefficients in [0, p) are split into limbs of w = ceil(bitlen(p - 1) / limbs)
    bits, and limb i is at most top_i = min(2^w - 1, (p - 1) >> (w i)).
    One limb is the whole coefficient, and the bound is (p - 1)^2.
    """
    width = -(-(p - 1).bit_length() // limbs)
    top = [min((1 << width) - 1, (p - 1) >> (width * i)) for i in range(limbs)]
    return max(
        sum(top[i] * top[s - i] for i in range(max(0, s - limbs + 1), min(s, limbs - 1) + 1))
        for s in range(2 * limbs - 1)
    )


def mul_limbs(p: int, la: int, lb: int) -> tuple[int, bool]:
    """How mul_mod multiplies factors of lengths la and lb unblocked: (limbs, by FFT).

    The limbs are the fewest of 1, 2 or 3 for which the product is exact;
    the bounds are derived in mul_mod's docstring.  mul_mod cuts a product
    with both lengths >= FFT_MIN_LEN and one past FFT_MAX_LEN into blocks
    first, and asks this for each block.
    """
    fft = min(la, lb) >= FFT_MIN_LEN and max(la, lb) <= FFT_MAX_LEN
    if fft:
        k = (la + lb - 2).bit_length()  # the padded length is 2^k
        scale, bound = max(la, lb) * (13 * k + 3), 1 << 52
    else:
        scale, bound = min(la, lb), 1 << 63
    return next(limbs for limbs in (1, 2, 3) if scale * _limb_pairs(p, limbs) < bound), fft


def mul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """The product of two coefficient arrays with entries in [0, p), mod p, in word(p).

    Each input is split into L limbs of w = ceil(bitlen(p - 1) / L) bits,
    the 2L - 1 limb-pair sums c_s = sum_{i + j = s} a_i * b_j are formed
    exactly, and the result is sum_s (c_s mod p) * (2^(w s) mod p) mod p.
    With L = 1 the limb is the whole coefficient and c_0 is the product.
    Products with a factor shorter than FFT_MIN_LEN form each c_s with
    np.convolve; where both factors reach FFT_MIN_LEN and one is longer than
    FFT_MAX_LEN, the longer is cut into blocks (_mul_blocks); the others
    form each c_s with np.fft:
    rfft of every limb, padded to n = 2^k, the pair products summed per s,
    one irfft per s, rounded.  So one limb costs 3 FFTs and two limbs 7.
    mul_limbs picks the fewest L, at most 3, that keeps c_s exact, by the
    two bounds below.  Write P_L for the largest sum over the pairs of one
    c_s of the products of their limbs' maxima (_limb_pairs): (p - 1)^2
    for L = 1, and below 2^23 for L = 3 at every p < 2^31, whose limbs
    are at most 11, 11 and 9 bits.

    Direct products: each c_s is a sum of at most min(len) terms per pair,
    so it is at most min(len) P_L.  np.convolve sums in its inputs' type,
    so the factors are widened to int64 first, and it is exact while that
    is below 2^63 (reduce_mod's precondition for non-negative x).  L = 3
    meets it for any min(len) < 2^40.

    Float-error bound: for real x, y zero-padded to n = 2^k, a
    double-precision FFT convolution with twiddle factors correct to the
    unit roundoff eps = 2^-53 errs in each output by less than
    ||x||_2 ||y||_2 ((1 + eps)^3k (1 + eps sqrt 5)^(3k + 1) (1 + eps)^3k - 1)
    (Percival, Math. Comp. 72 (2003); Brent and Zimmermann, Modern Computer
    Arithmetic, section 3.3), which is below ||x||_2 ||y||_2 eps (13 k + 3).
    With both lengths at most m, the pairs of one c_s have norm products
    summing to at most m P_L, so rounding is exact while
    m P_L eps (13 k + 3) < 1/2, i.e. m P_L (13 k + 3) < 2^52, and mul_limbs
    takes the fewest L for which it holds at this product's m and k; the
    exact c_s is then below 2^52 too, so the float holds it.  For
    li_(2,1) * li_3 (lengths 2p - 1 and p) that is one limb up to
    p = 21841, where the padded length is 2^16.  At L = 3, P_L < 2^23, so
    every m with m (13 k + 3) < 2^29 is exact whatever p < 2^31.  For
    m < 2^21 the padded length is at most 2^22, so k <= 22, and every
    m <= FFT_MAX_LEN = 2^29 // 289 = 1,857,684 is exact with at most three
    limbs.  At m = FFT_MAX_LEN on all-(p - 1) inputs, three limbs of 11
    bits had a largest distance to an integer before rounding of 0.012 at
    p = 2^31 - 1 and 0.010 at p = 2^22 - 3.
    """
    la, lb = len(a), len(b)
    if min(la, lb) >= FFT_MIN_LEN and max(la, lb) > FFT_MAX_LEN:
        return _mul_blocks(a, b, p) if la >= lb else _mul_blocks(b, a, p)
    limbs, fft = mul_limbs(p, la, lb)
    if not fft:
        a, b = a.astype(np.int64, copy=False), b.astype(np.int64, copy=False)
    width = -(-(p - 1).bit_length() // limbs)
    mask = (1 << width) - 1
    a_limbs = [a] if limbs == 1 else [a >> (width * i) & mask for i in range(limbs)]
    b_limbs = [b] if limbs == 1 else [b >> (width * i) & mask for i in range(limbs)]
    length = la + lb - 1
    if fft:
        n = 1 << (length - 1).bit_length()
        a_limbs = [np.fft.rfft(x, n) for x in a_limbs]
        b_limbs = [np.fft.rfft(x, n) for x in b_limbs]
    pair_product = np.multiply if fft else np.convolve
    for s in range(2 * limbs - 1):
        pairs = range(max(0, s - limbs + 1), min(s, limbs - 1) + 1)
        c = pair_product(a_limbs[pairs[0]], b_limbs[s - pairs[0]])
        for i in pairs[1:]:
            c += pair_product(a_limbs[i], b_limbs[s - i])
        if fft:
            c = np.rint(np.fft.irfft(c, n)[:length]).astype(np.int64)
        if s == 0:
            out = reduce_mod(c, p)
        else:
            out += reduce_mod(c, p) * pow(2, width * s, p)
            reduce_mod(out, p)
    return out.astype(word(p), copy=False)


def _mul_blocks(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """mul_mod for len(a) >= len(b) >= FFT_MIN_LEN with len(a) > FFT_MAX_LEN.

    a is cut into blocks of min(len(b), FFT_MAX_LEN) coefficients, each block
    is multiplied by b through mul_mod (which cuts b in turn where b passes
    FFT_MAX_LEN), and the products are added at their offsets, reduced after
    each add: entries < p plus a product's entries < p stay below 2p.  So a
    product past FFT_MAX_LEN stays O(n log n), where one np.convolve would
    take len(a) * len(b) multiply-adds.
    """
    step = min(len(b), FFT_MAX_LEN)
    out = np.zeros(len(a) + len(b) - 1, dtype=word(p))
    for start in range(0, len(a), step):
        block = a[start : start + step]
        seg = out[start : start + len(block) + len(b) - 1]
        seg += mul_mod(block, b, p)
        reduce_mod(seg, p)
    return out


class ModPoly:
    """Dense polynomial over F_p; ``coeffs[e]`` is the coefficient of T^e."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Union[Iterable[int], np.ndarray] = ()):
        """Reduce a copy of coeffs (|c| < 2^62) mod p into word(p), and trim its trailing zeros.

        This is the input boundary: it checks p and trusts nothing of coeffs.
        Tables that a kernel has already reduced go through _from_reduced.
        """
        ensure_prime(p)
        self._keep(p, reduce_mod(np.array(coeffs, dtype=np.int64), p).astype(word(p), copy=False))

    @classmethod
    def _from_reduced(cls, p: int, arr: np.ndarray) -> "ModPoly":
        """The polynomial of arr, a word(p) array already in [0, p), for a p already checked.

        The producers of finished tables use this: eval_fmp, eval_fmp_triple,
        __mul__, eval_expression and _accumulate.  It skips __init__'s check
        and copy, and takes only the step __init__ ends with, _keep, so the
        caller hands arr over.
        """
        poly = object.__new__(cls)
        poly._keep(p, arr)
        return poly

    def _keep(self, p: int, arr: np.ndarray) -> None:
        """Set p, and arr as the coefficients: trimmed of trailing zeros and made read-only.

        arr is kept, not copied, unless its last entry is 0: then the
        trimmed part is copied, so that no long base array stays alive.
        """
        if len(arr) and arr[-1] == 0:
            nz = np.flatnonzero(arr)
            arr = arr[: nz[-1] + 1 if len(nz) else 0].copy()
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

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return len(self.coeffs) > 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModPoly):
            return NotImplemented
        return self.p == other.p and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        # the bytes of the int64 values, so that equal polynomials hash alike whatever their width
        return hash((self.p, self.coeffs.astype(np.int64, copy=False).tobytes()))

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
        return ModPoly._from_reduced(self.p, mul_mod(self.coeffs, other.coeffs, self.p))

    def evaluate(self, t: int) -> int:
        """The value at t in F_p, equal to Horner's rule.

        The powers t^e for e < n = len(coeffs) come from _power_table in
        about 2 sqrt(n) Python steps.  Each term c_e t^e is a product of two
        residues, which the word holds, and is reduced below p; a sum of at
        most 2^32 of them, taken in int64, stays < 2^32 p < 2^63, and longer
        arrays are summed in slices of 2^32.
        """
        p, n = self.p, len(self.coeffs)
        if n == 0:
            return 0
        terms = reduce_mod(self.coeffs * _power_table(t % p, n, p), p)
        return sum(int(terms[i : i + (1 << 32)].sum(dtype=np.int64)) for i in range(0, n, 1 << 32)) % p

    def text_chunks(self) -> Iterator[str]:
        """str(self) in pieces of at most TEXT_CHUNK_TERMS terms each, which join to str(self).

        A writer that writes the pieces one by one holds one piece's strings
        at a time, not one string per term of the whole polynomial.
        """
        if not self:
            yield "0"
            return
        sep = ""
        nonzero, terms = np.flatnonzero(self.coeffs), TEXT_CHUNK_TERMS
        for lo in range(0, len(nonzero), terms):
            exps = nonzero[lo : lo + terms]
            parts = []
            for e, c in zip(exps.tolist(), self.coeffs[exps].tolist()):
                if e == 0:
                    parts.append(str(c))
                elif e == 1:
                    parts.append("T" if c == 1 else f"{c}*T")
                else:
                    parts.append(f"T^{e}" if c == 1 else f"{c}*T^{e}")
            yield sep + " + ".join(parts)
            sep = " + "

    def __str__(self) -> str:
        return "".join(self.text_chunks())

    def __repr__(self) -> str:
        return f"ModPoly(p={self.p}, {self})"
