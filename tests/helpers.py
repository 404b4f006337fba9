"""Shared index generators for the test grids, reference evaluators, and the environment of CLI subprocesses."""

import math
import os
from itertools import product

import numpy as np

import fmpl
from fmpl.evaluate import eval_fmp, eval_zeta
from fmpl.identities import CheckResult
from fmpl.modular import ModPoly, ensure_prime, mod_inverse
from fmpl.words import EMPTY, FormalSum, Index, shuffle

I = Index.of

# The primes either side of the width rule's edges: in int32, (p - 1)^3 fits
# at 1291 and not at 1297; (p - 1)^2 fits int32 at 46337 and not at 46349.
EDGE_PRIMES = (1291, 1297, 46337, 46349)


def subprocess_env() -> dict[str, str]:
    """os.environ with the fmpl under test first on PYTHONPATH, for a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(fmpl.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def compositions(total: int, parts: int):
    """All ways to write total as an ordered sum of `parts` positive ints."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def indices_with(weight: int, depth: int) -> list[Index]:
    return [Index(c) for c in compositions(weight, depth)]


def indices_up_to(max_weight: int, max_depth: int | None = None, include_empty: bool = True) -> list[Index]:
    """All indices with weight <= max_weight (and optionally depth <= max_depth)."""
    out = [EMPTY] if include_empty else []
    for w in range(1, max_weight + 1):
        top = w if max_depth is None else min(w, max_depth)
        for r in range(1, top + 1):
            out.extend(indices_with(w, r))
    return out


def index_triples_up_to(max_total_weight: int, max_each_depth: int) -> list[tuple[Index, Index, Index]]:
    """All index triples with bounded per-index depth and bounded total weight."""
    pool = indices_up_to(max_total_weight, max_each_depth)
    return [
        (a, b, c)
        for a, b, c in product(pool, repeat=3)
        if a.weight + b.weight + c.weight <= max_total_weight
    ]


def index_pairs_up_to(max_total_weight: int) -> list[tuple[Index, Index]]:
    """All index pairs with wt(k) + wt(k') <= max_total_weight."""
    pool = indices_up_to(max_total_weight)
    return [(a, b) for a, b in product(pool, repeat=2) if a.weight + b.weight <= max_total_weight]


def eval_expression_per_term(expr, p):
    """The generator sum in F_p[T], one scaled and shifted li table per term.

    The reference for identities.eval_expression: each term's eval_fmp
    coefficients times its scalar are added into one int64 array at offset
    p * tpow and reduced after each add (entries stay below p + (p - 1)^2).
    """
    ensure_prime(p)
    parts = []
    for t in expr.terms:
        scalar = t.coef * eval_zeta(t.zeta_index, p) % p
        if scalar:
            parts.append((p * t.tpow, scalar, eval_fmp(t.li_index, p).coeffs))
    out = np.zeros(max((shift + len(c) for shift, _, c in parts), default=0), dtype=np.int64)
    for shift, scalar, coeffs in parts:
        window = out[shift : shift + len(coeffs)]
        window += coeffs * scalar
        window %= p
    return ModPoly(p, out)


def pfd_exhaustive(alpha, beta, p, comb=math.comb):
    """The reference for identities.pfd_check: the decomposition at every (X, Y) in F_p^x x F_p^x.

    One literal double loop with pow per pair, O((alpha + beta) p^2); comb
    gives the binomials, so a test can hand both checks the same wrong one.
    """
    ensure_prime(p)
    ca = [comb(alpha - 1 + t, t) % p for t in range(beta)]
    cb = [comb(beta - 1 + t, t) % p for t in range(alpha)]
    for x in range(1, p):
        ix = mod_inverse(x, p)
        for y in range(1, p):
            z = (x + y) % p
            if z == 0:
                continue
            iy, iz = mod_inverse(y, p), mod_inverse(z, p)
            lhs = pow(ix, alpha, p) * pow(iy, beta, p) % p
            rhs = 0
            for t in range(beta):
                rhs += ca[t] * pow(iz, alpha + t, p) % p * pow(iy, beta - t, p) % p
            for t in range(alpha):
                rhs += cb[t] * pow(iz, beta + t, p) % p * pow(ix, alpha - t, p) % p
            if lhs != rhs % p:
                return CheckResult(False, f"X={x} Y={y}: lhs={lhs} rhs={rhs % p}")
    return CheckResult(True)


def reversed_image(fs):
    return FormalSum([(Index(k.parts[::-1]), c) for k, c in fs])


def reversed_shuffle(k, kp):
    """The shuffle sum in the word convention that matches the evaluators."""
    return reversed_image(shuffle(Index(k.parts[::-1]), Index(kp.parts[::-1])))


def second_class_depth3(k1, k2, k3):
    """Expansion of the second band at depth 3 (six terms)."""
    return [
        I(k3, k1, k2),
        I(k1, k3, k2),
        I(k2, k3, k1),
        I(k2, k1, k3),
        I(k1 + k3, k2),
        I(k2, k1 + k3),
    ]


def second_class_depth4(k1, k2, k3, k4):
    """Expansion of the second band at depth 4 (twenty-one terms)."""
    return [
        I(k4, k1, k2, k3),
        I(k3, k4, k1, k2),
        I(k2, k3, k4, k1),
        I(k1, k4, k2, k3),
        I(k3, k1, k4, k2),
        I(k2, k3, k1, k4),
        I(k1, k2, k4, k3),
        I(k3, k1, k2, k4),
        I(k2, k1, k3, k4),
        I(k1, k3, k4, k2),
        I(k1, k3, k2, k4),
        I(k1 + k3, k2, k4),
        I(k2, k1 + k3, k4),
        I(k1 + k3, k4, k2),
        I(k1 + k4, k2, k3),
        I(k3, k1 + k4, k2),
        I(k2, k3, k1 + k4),
        I(k1, k2 + k4, k3),
        I(k3, k1, k2 + k4),
        I(k1, k3, k2 + k4),
        I(k1 + k3, k2 + k4),
    ]


def third_class_depth4(k1, k2, k3, k4):
    """Expansion of the third band at depth 4 (twenty-one terms)."""
    return [
        I(k3, k2, k1, k4),
        I(k2, k1, k4, k3),
        I(k1, k4, k3, k2),
        I(k3, k2, k4, k1),
        I(k2, k4, k1, k3),
        I(k4, k1, k3, k2),
        I(k3, k4, k2, k1),
        I(k4, k2, k1, k3),
        I(k4, k3, k1, k2),
        I(k2, k4, k3, k1),
        I(k4, k2, k3, k1),
        I(k4, k2, k1 + k3),
        I(k4, k1 + k3, k2),
        I(k2, k4, k1 + k3),
        I(k3, k2, k1 + k4),
        I(k2, k1 + k4, k3),
        I(k1 + k4, k3, k2),
        I(k3, k2 + k4, k1),
        I(k2 + k4, k1, k3),
        I(k2 + k4, k3, k1),
        I(k2 + k4, k1 + k3),
    ]
