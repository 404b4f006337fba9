"""Exact arithmetic over prime fields and dense polynomials in F_p[T].

Field elements are plain ints in ``[0, p-1]``; polynomials store a dense
int64 coefficient array indexed by exponent.  All values are immutable
after construction, so they can be shared freely across sweep workers.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Union

import numpy as np

# Residues must fit a machine word so that a*b fits a signed 64-bit int.
MAX_PRIME = 1 << 31

_MR_BASES = (2, 3, 5, 7)  # deterministic for n < 3_215_031_751 > 2^31


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
    """All primes p with lo <= p <= hi, ascending."""
    if hi < lo or hi < 2:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for q in range(2, int(hi**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = b"\x00" * len(sieve[q * q :: q])
    return [n for n in range(max(lo, 2), hi + 1) if sieve[n]]


def mod_inverse(a: int, p: int) -> int:
    """Inverse of a modulo p.

    Raises ZeroDivisionError for a divisible by p; upstream this signals a
    summand excluded by the coprime-denominator restriction.
    """
    try:
        return pow(a, -1, p)
    except ValueError:
        raise ZeroDivisionError(f"non-invertible residue {a % p} mod {p}") from None


@lru_cache(maxsize=256)
def inverse_table(p: int) -> np.ndarray:
    """Read-only array inv with inv[0] = 0 and inv[a] = a^-1 mod p."""
    inv = np.zeros(p, dtype=np.int64)
    if p > 1:
        inv[1] = 1
    for a in range(2, p):
        inv[a] = (p - (p // a) * inv[p % a]) % p
    inv.flags.writeable = False
    return inv


def ensure_prime(p: int) -> None:
    if not (2 <= p < MAX_PRIME) or not is_prime(p):
        raise ValueError(f"{p} is not a prime in the supported range")


class ModPoly:
    """Dense polynomial over F_p; ``coeffs[e]`` is the coefficient of T^e."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Union[Iterable[int], np.ndarray] = ()):
        ensure_prime(p)
        arr = np.asarray(coeffs, dtype=np.int64) % p
        nz = np.nonzero(arr)[0]
        arr = arr[: nz[-1] + 1].copy() if len(nz) else np.zeros(0, dtype=np.int64)
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
        # int64 convolution is exact while n_terms * (p-1)^2 < 2^63
        n_terms = min(len(self.coeffs), len(other.coeffs))
        if n_terms * (self.p - 1) ** 2 >= (1 << 62):
            raise OverflowError("convolution would overflow 64-bit intermediates")
        return ModPoly(self.p, np.convolve(self.coeffs, other.coeffs))

    def scaled(self, c: int) -> "ModPoly":
        return ModPoly(self.p, self.coeffs * (c % self.p))

    def shifted(self, n: int) -> "ModPoly":
        """Multiply by T^n."""
        if not self or n == 0:
            return self
        return ModPoly(self.p, np.concatenate([np.zeros(n, dtype=np.int64), self.coeffs]))

    def evaluate(self, t: int) -> int:
        """Horner evaluation at t in F_p."""
        acc = 0
        t %= self.p
        for c in reversed(self.coeffs.tolist()):
            acc = (acc * t + c) % self.p
        return acc

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
