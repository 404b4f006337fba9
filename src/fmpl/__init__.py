"""Finite multiple polylogarithms over prime fields.

Exact evaluation of truncated multiple harmonic sums and their polynomial
analogues mod p, the shuffle and stuffle word algebras on indices, the
descent-classified expansion of variant zeta values, and the explicit
correction expressions that witness the shuffle congruence, verified per
prime over configurable sweeps.
"""

import os as _os

# numpy's bundled OpenBLAS starts one worker thread per extra core when
# numpy loads, and they spin for a while, yet fmpl calls no BLAS routine:
# its products are np.fft and np.convolve on int64, the rest elementwise
# integer arithmetic on tables in p's word (modular's width rule;
# tests/test_blas.py keeps it so).  On a 2-core x86-64 machine that thread
# cost each fmpl process 70-150 ms of CPU time, and a process that only
# imports and parses 70 ms of wall time.  So numpy loads with one BLAS
# thread, unless the caller set OPENBLAS_NUM_THREADS, which then wins;
# os.environ is restored right after, so the caller and its children see no
# change.  This does nothing where numpy was imported before fmpl, or where
# numpy uses another BLAS.
_default_blas_threads = "OPENBLAS_NUM_THREADS" not in _os.environ
if _default_blas_threads:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as _numpy  # noqa: F401  (loads OpenBLAS)
finally:
    if _default_blas_threads:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .modular import ModPoly, is_prime, mod_inverse, primes_in_range
from .words import (
    EMPTY,
    FormalSum,
    Index,
    concat,
    index_to_word,
    shuffle,
    star,
    stuffle,
    word_to_index,
)
from .surjections import (
    bijection_roundtrip,
    count_x_tuples,
    descents,
    enumerate_phi,
    f_map,
    g_map,
    variant_expansion,
)
from .evaluate import (
    brute_force_fmp,
    brute_force_fmp_triple,
    brute_force_zeta_variant,
    eval_fmp,
    eval_fmp_triple,
    eval_zeta,
    eval_zeta_variant,
)
from .identities import (
    CheckResult,
    CorrectionExpression,
    CorrectionTerm,
    eval_expression,
    expand_triple,
    pfd_check,
    shuffle_correction,
    term_product,
    verify_eq7,
    verify_li_at_one,
    verify_main,
    verify_prop24,
    verify_reversal,
    verify_stuffle,
)
from .sweep import PrimeOutcome, SweepReport, run_sweep

__version__ = "0.1.0"
