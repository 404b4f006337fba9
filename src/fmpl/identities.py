"""The explicit identities, as executable objects.

The central operation is expand_triple: it turns the three-block sum
li(lam, mu, nu; T) into an exact finite combination of generators

    coef * zeta(k) * (T^p)^n * li(k')

by recursing on the last parts of lam and mu.  One recursion step splits
the sum by whether the combined value L_a + M_b is divisible by p; the
coprime branch is rewritten with the partial-fraction decomposition
verified by pfd_check, and the divisible branches produce variant zeta
values that are immediately expanded into ordinary zeta values.  The
recursion terminates because dep(lam) + dep(mu) drops at every step.
Every coefficient it produces is a signed product of binomials and of the
expansions' integer counts, so an int.  A generator is a CorrectionTerm,
a named tuple, so an expression merges, sorts and hashes its terms as
tuples.

Each generator carries the bigrade (a, b) with a = wt(zeta) + wt(li) and
b = wt(li); the shuffle congruence says the product li_k * li_k' equals
the shuffle sum plus generators of sublevel b <= a - 1, and
shuffle_correction returns exactly that decomposition.  The shuffle sum is
read in li's orientation: li puts k_1 on the innermost partial sum L_1,
so the pure part is the reversed image rev(shuffle(rev k, rev k')) of
words.shuffle, e.g. li_1 * li_2 = li_{2,1} + 2 li_{1,2} + zeta(3) T^p.

eval_expression (from fold) takes an expression to its polynomial in
F_p[T], and verify_eq7 sums its right side with fold's accumulator.

The verify_* functions compare two independently computed F_p (or
F_p[T]) values and report the first difference.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import index
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .evaluate import PrefixTrie, _inv_powers, eval_fmp, eval_fmp_triple, eval_zeta, eval_zeta_variant, zeta_sums
from .fold import _accumulate, eval_expression
from .modular import ModPoly, ensure_prime, inverse_table, reduce_mod
from .surjections import variant_expansion
from .words import EMPTY, FormalSum, Index, _unchecked_index, concat, star, stuffle


class CorrectionTerm(NamedTuple):
    """One generator coef * zeta(zeta_index) * (T^p)^tpow * li(li_index)."""

    coef: int
    zeta_index: Index
    tpow: int
    li_index: Index

    @property
    def bigrade(self) -> tuple[int, int]:
        """(a, b) = (wt(zeta) + wt(li), wt(li))."""
        b = self.li_index.weight
        return self.zeta_index.weight + b, b

    @property
    def is_pure(self) -> bool:
        return not self.zeta_index and self.tpow == 0

    def __str__(self) -> str:
        return (
            f"{self.coef}*zeta({self.zeta_index.text().replace('-', '')})"
            f"*Tp^{self.tpow}*li({self.li_index.text().replace('-', '')})"
        )


class CorrectionExpression:
    """A canonical finite sum of generators (sorted, merged, zero-free).

    The terms are merged on (zeta_index, tpow, li_index) and sorted by it;
    each coefficient is taken through operator.index, so one that is not an
    integer is a TypeError.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Iterable[CorrectionTerm] = ()):
        merged: dict[tuple[Index, int, Index], int] = {}
        for t in terms:
            key = t[1:]
            merged[key] = merged.get(key, 0) + index(t[0])
        self._freeze(merged)

    @classmethod
    def _of(cls, merged: dict[tuple[Index, int, Index], int]) -> "CorrectionExpression":
        """From merged {(zeta_index, tpow, li_index): coef} with int coefficients, unchecked."""
        self = cls.__new__(cls)
        self._freeze(merged)
        return self

    def _freeze(self, merged: dict[tuple[Index, int, Index], int]) -> None:
        terms = tuple(CorrectionTerm(c, *key) for key, c in sorted(merged.items()) if c)
        object.__setattr__(self, "_terms", terms)
        # hash(terms), computed once: the plan cache hashes the expression at every prime
        object.__setattr__(self, "_hash", hash(terms))

    def __setattr__(self, name, value):
        raise AttributeError("CorrectionExpression is immutable")

    def __reduce__(self):
        return CorrectionExpression, (self._terms,)

    @property
    def terms(self) -> tuple[CorrectionTerm, ...]:
        return self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CorrectionExpression):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return self._hash

    def __add__(self, other: "CorrectionExpression") -> "CorrectionExpression":
        return CorrectionExpression(self._terms + other._terms)

    def __mul__(self, c: int) -> "CorrectionExpression":
        return CorrectionExpression(_scaled(index(c), self))

    __rmul__ = __mul__

    def pure_part(self) -> FormalSum:
        """The zeta-free, shift-free generators, as a formal sum of li indices."""
        return FormalSum([(t.li_index, t.coef) for t in self._terms if t.is_pure])

    def impure_terms(self) -> tuple[CorrectionTerm, ...]:
        return tuple(t for t in self._terms if not t.is_pure)

    def __str__(self) -> str:
        return " + ".join(str(t) for t in self._terms) if self._terms else "0"

    def __repr__(self) -> str:
        return f"CorrectionExpression({self})"


def _scaled(c: int, expr: CorrectionExpression) -> Iterator[CorrectionTerm]:
    return (CorrectionTerm(c * coef, z, tpow, li) for coef, z, tpow, li in expr.terms)


@lru_cache(maxsize=None)
def expand_triple(lam: Index, mu: Index, nu: Index) -> CorrectionExpression:
    """Exact generator decomposition of the three-block sum.

    All terms share level a = wt(lam) + wt(mu) + wt(nu); the impure terms
    sit at sublevel b <= a - 1.
    """
    return CorrectionExpression._of(_expand(lam, mu, nu))


@lru_cache(maxsize=None)
def _expand(lam: Index, mu: Index, nu: Index) -> dict[tuple[Index, int, Index], int]:
    """expand_triple's terms as {(zeta index, T-power, li index): coef}, shared by the cache: read only.

    Every index built here is made of the parts of lam, mu and nu, or sums
    of them, so it is built unchecked.
    """
    if not lam or not mu:
        return {(EMPTY, 0, concat(lam or mu, nu)): 1}
    out: dict[tuple[Index, int, Index], int] = {}

    def add(c: int, terms: Iterable[tuple[tuple[Index, int, Index], int]]) -> None:
        for key, v in terms:
            out[key] = out.get(key, 0) + c * v

    a, b = len(lam), len(mu)
    la, mb = lam[-1], mu[-1]
    for tau in range(mb):
        sub = _expand(lam.head(), _unchecked_index(mu[:-1] + (mb - tau,)), _unchecked_index((la + tau,) + nu))
        add(comb(la - 1 + tau, tau), sub.items())
    for tau in range(la):
        sub = _expand(_unchecked_index(lam[:-1] + (la - tau,)), mu.head(), _unchecked_index((mb + tau,) + nu))
        add(comb(mb - 1 + tau, tau), sub.items())
    sign, merged = -1 if sum(mu) % 2 else 1, star(lam, mu)
    for i in range(1, a + b):
        add(sign, (((zi, i, nu), c) for zi, c in variant_expansion(i, merged)))
    if a >= 2:
        li4 = _unchecked_index(mu[:-1] + (la + mb,) + nu)
        for j in range(1, a):
            add(-comb(la + mb - 1, la), (((zi, j, li4), c) for zi, c in variant_expansion(j, lam.head())))
    if b >= 2:
        li5 = _unchecked_index(lam[:-1] + (la + mb,) + nu)
        for j in range(1, b):
            add(-comb(la + mb - 1, mb), (((zi, j, li5), c) for zi, c in variant_expansion(j, mu.head())))
    return {key: c for key, c in out.items() if c}


def shuffle_correction(k: Index, kp: Index) -> CorrectionExpression:
    """Decomposition of li_k * li_kp.

    Its pure part is the shuffle sum in li's orientation: the reversed image
    rev(shuffle(rev k, rev kp)) of words.shuffle.
    """
    return expand_triple(k, kp, EMPTY)


def term_product(t1: CorrectionTerm, t2: CorrectionTerm) -> CorrectionExpression:
    """Product of two generators, rewritten over the generator set.

    The zeta factors multiply by the stuffle rule and the li factors by the
    shuffle decomposition; the result stays at level a1 + a2 with sublevel
    at most b1 + b2.
    """
    out: list[CorrectionTerm] = []
    li_prod = shuffle_correction(t1.li_index, t2.li_index)
    for zi, zc in stuffle(t1.zeta_index, t2.zeta_index):
        for t in li_prod.terms:
            for zzi, zzc in stuffle(zi, t.zeta_index):
                out.append(
                    CorrectionTerm(
                        t1.coef * t2.coef * zc * t.coef * zzc,
                        zzi,
                        t1.tpow + t2.tpow + t.tpow,
                        t.li_index,
                    )
                )
    return CorrectionExpression(out)


@lru_cache(maxsize=256)
def _trie_of(indices: frozenset) -> PrefixTrie:
    return PrefixTrie(indices)


def eval_formal_sum_zeta(fs: FormalSum, p: int) -> int:
    """Evaluate a formal sum of indices through zeta, by one prefix-trie walk."""
    ensure_prime(p)
    coefs = [(k, c % p) for k, c in fs]
    trie = _trie_of(frozenset(k for k, _ in coefs))
    zeta = dict(zip(trie.indices, zeta_sums(trie, p).tolist()))
    return sum(c * zeta[k] for k, c in coefs) % p


class CheckResult(NamedTuple):
    """Outcome of one per-prime check: ok plus a human-readable detail."""

    ok: bool
    detail: Optional[str] = None


def _poly_diff(lhs: ModPoly, rhs: ModPoly) -> CheckResult:
    if lhs == rhs:
        return CheckResult(True)
    n = max(len(lhs.coeffs), len(rhs.coeffs))
    a = np.zeros(n, dtype=np.int64)
    b = np.zeros(n, dtype=np.int64)
    a[: len(lhs.coeffs)] = lhs.coeffs
    b[: len(rhs.coeffs)] = rhs.coeffs
    e = int(np.nonzero(a != b)[0][0])
    return CheckResult(False, f"first diff at T^{e}: lhs={a[e]} rhs={b[e]}")


def _scalar_diff(lhs: int, rhs: int) -> CheckResult:
    if lhs == rhs:
        return CheckResult(True)
    return CheckResult(False, f"lhs={lhs} rhs={rhs}")


def _binomials_mod(n: int, count: int, p: int) -> list[int]:
    """C(n + t, t) mod p for 0 <= t < count (count >= 1), stepped by C(n + t - 1, t - 1) (n + t) / t.

    The power of p that divides the binomial is kept apart from its unit part
    mod p, so each division is by a unit and a coefficient is 0 while that
    power is positive; the exact binomials grow with t.
    """
    row, unit, power = [1], 1, 0
    for t in range(1, count):
        num, den = n + t, t
        while num % p == 0:
            num //= p
            power += 1
        while den % p == 0:
            den //= p
            power -= 1
        unit = unit * num * pow(den, -1, p) % p
        row.append(0 if power else unit)
    return row


def pfd_check(alpha: int, beta: int, p: int) -> CheckResult:
    """Verify the two-variable partial fraction decomposition on F_p^x x F_p^x.

    For all X, Y in F_p^x with X + Y nonzero mod p:
        1/(X^alpha Y^beta)
          = sum_{tau < beta} C(alpha-1+tau, tau) / ((X+Y)^(alpha+tau) Y^(beta-tau))
          + sum_{tau < alpha} C(beta-1+tau, tau) / ((X+Y)^(beta+tau) X^(alpha-tau)).
    Every term is homogeneous of degree -(alpha+beta) in (X, Y), so the
    identity holds at (X, Y) iff it holds at (1, Y/X), and it holds
    everywhere iff it holds on the row X = 1, Y = 1 .. p-2 (Y = p-1 makes
    X + Y zero).  The row is a word(p) array over Y with Z = Y + 1, and
    every product in it is one of two residues.  Each
    sum starts its powers 1/Z^(alpha+tau) or 1/Z^(beta+tau), and
    1/Y^(beta-tau), at the cached inverse-power tables and steps them by one
    factor per tau, 1/Z or Y: O(p) memory and O((alpha+beta) p) work.
    """
    if alpha < 1 or beta < 1:
        raise ValueError("exponents must be positive")
    inv_z = inverse_table(p)[2:]  # the first table, whose memo checks p
    y = np.arange(1, p - 1, dtype=inv_z.dtype)
    lhs = _inv_powers(beta, p)[1 : p - 1]
    rhs = np.zeros(p - 2, dtype=inv_z.dtype)
    for coefs, z_power, y_power in (
        (_binomials_mod(alpha - 1, beta, p), _inv_powers(alpha, p)[2:].copy(), lhs.copy()),
        (_binomials_mod(beta - 1, alpha, p), _inv_powers(beta, p)[2:].copy(), None),
    ):
        for c in coefs:
            term = z_power if y_power is None else reduce_mod(z_power * y_power, p)
            rhs += reduce_mod(term * c, p)
            reduce_mod(rhs, p)
            z_power *= inv_z
            reduce_mod(z_power, p)
            if y_power is not None:
                y_power *= y
                reduce_mod(y_power, p)
    bad = np.flatnonzero(lhs != rhs)
    if len(bad):
        i = int(bad[0])
        return CheckResult(False, f"X=1 Y={i + 1}: lhs={lhs[i]} rhs={rhs[i]}")
    return CheckResult(True)


def verify_eq7(lam: Index, mu: Index, nu: Index, p: int) -> CheckResult:
    """Check one step of the recursion numerically, term by term.

    The right side evaluates the variant zeta values directly from their
    defining sums, independently of the surjection expansion, so this
    check and the expansion check fail independently.
    """
    if lam == EMPTY or mu == EMPTY:
        raise ValueError("recursion step requires nonempty first and second blocks")
    lhs = eval_fmp_triple(lam, mu, nu, p)
    a, b = lam.depth, mu.depth
    la, mb = lam[-1], mu[-1]
    terms: list[tuple[int, int, np.ndarray]] = []
    for tau, c in enumerate(_binomials_mod(la - 1, mb, p)):
        sub = eval_fmp_triple(lam.head(), Index(mu[:-1] + (mb - tau,)), Index((la + tau,) + nu), p)
        terms.append((c, 0, sub.coeffs))
    for tau, c in enumerate(_binomials_mod(mb - 1, la, p)):
        sub = eval_fmp_triple(Index(lam[:-1] + (la - tau,)), mu.head(), Index((mb + tau,) + nu), p)
        terms.append((c, 0, sub.coeffs))
    sign = p - 1 if mu.weight % 2 else 1
    merged = star(lam, mu)
    li_nu = eval_fmp(nu, p).coeffs
    for i in range(1, a + b):
        terms.append((sign * eval_zeta_variant(i, merged, p) % p, p * i, li_nu))
    if a >= 2:
        c4 = comb(la + mb - 1, la) % p
        li4 = eval_fmp(Index(mu[:-1] + (la + mb,) + nu), p).coeffs
        for j in range(1, a):
            terms.append(((p - c4) * eval_zeta_variant(j, lam.head(), p) % p, p * j, li4))
    if b >= 2:
        c5 = comb(la + mb - 1, mb) % p
        li5 = eval_fmp(Index(lam[:-1] + (la + mb,) + nu), p).coeffs
        for j in range(1, b):
            terms.append(((p - c5) * eval_zeta_variant(j, mu.head(), p) % p, p * j, li5))
    rhs = _accumulate(max(offset + len(table) for _, offset, table in terms), terms, p)
    return _poly_diff(lhs, rhs)


def verify_main(k: Index, kp: Index, p: int) -> CheckResult:
    """li_k * li_kp against the evaluated correction expression, in F_p[T]."""
    lhs = eval_fmp(k, p) * eval_fmp(kp, p)
    rhs = eval_expression(shuffle_correction(k, kp), p)
    return _poly_diff(lhs, rhs)


def verify_prop24(i: int, k: Index, p: int) -> CheckResult:
    """Variant zeta value against its surjection expansion."""
    lhs = eval_zeta_variant(i, k, p)
    rhs = eval_formal_sum_zeta(variant_expansion(i, k), p)
    return _scalar_diff(lhs, rhs)


def verify_stuffle(k: Index, kp: Index, p: int) -> CheckResult:
    """zeta(k) * zeta(kp) against the stuffle sum; exact per prime."""
    lhs = eval_zeta(k, p) * eval_zeta(kp, p) % p
    rhs = eval_formal_sum_zeta(stuffle(k, kp), p)
    return _scalar_diff(lhs, rhs)


def verify_reversal(k: Index, p: int) -> CheckResult:
    """Last-band variant against (-1)^wt times the plain zeta value."""
    if k.depth < 1:
        raise ValueError("reversal check requires a nonempty index")
    lhs = eval_zeta_variant(k.depth, k, p)
    rhs = (-1) ** k.weight * eval_zeta(k, p) % p
    return _scalar_diff(lhs, rhs)


def verify_li_at_one(k: Index, p: int) -> CheckResult:
    """Evaluate the polynomial at T = 1 and compare with zero."""
    value = eval_fmp(k, p).evaluate(1)
    if value == 0:
        return CheckResult(True)
    return CheckResult(False, f"li(1) = {value}")
