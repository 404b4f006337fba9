from collections import Counter
from itertools import product
from math import comb

import pytest

from helpers import (
    indices_up_to,
    indices_with,
    second_class_depth3,
    second_class_depth4,
    third_class_depth4,
)
from fmpl import cli, surjections
from fmpl.surjections import (
    MAX_R,
    _admissible,
    bijection_roundtrip,
    count_x_tuples,
    descents,
    enumerate_phi,
    f_map,
    g_map,
    variant_expansion,
)
from fmpl.words import EMPTY, FormalSum, Index

I = Index.of


def beta(phi):
    """The class of a level map: its number of descents plus one."""
    return descents(phi)[-1] + 1


def test_g_map_rejects_bad_maps():
    phi = (2, 1, 2)
    assert (len(phi), max(phi)) == (3, 2)
    assert descents(phi) == (0, 1, 1)
    assert beta(phi) == 2
    assert g_map(phi, (1, 3), 5) == (3, 3, 2)
    with pytest.raises(ValueError, match="equal adjacent"):
        g_map((1, 1), (2,), 5)
    with pytest.raises(ValueError, match="not surjective"):
        g_map((1, 3), (1, 2, 3), 5)  # not surjective onto [3]
    with pytest.raises(ValueError, match="empty"):
        g_map((), (), 5)


def test_enumerate_phi_small():
    (only,) = enumerate_phi(1)
    assert only == (1,) and beta(only) == 1

    r2 = enumerate_phi(2)
    assert list(r2) == [(1, 2), (2, 1)]
    assert [beta(phi) for phi in r2] == [1, 2]
    assert not [phi for phi in r2 if max(phi) == 1]

    r3 = enumerate_phi(3)
    by_s = {s: [phi for phi in r3 if max(phi) == s] for s in (1, 2, 3)}
    assert len(by_s[1]) == 0
    assert sorted(by_s[2]) == [(1, 2, 1), (2, 1, 2)]
    assert all(beta(phi) == 2 for phi in by_s[2])
    assert len(by_s[3]) == 6


def test_enumerate_phi_matches_brute_force():
    for r in (1, 2, 3, 4):
        expected = set()
        for s in range(1, r + 1):
            for vals in product(range(1, s + 1), repeat=r):
                if set(vals) == set(range(1, s + 1)) and all(
                    vals[i] != vals[i + 1] for i in range(r - 1)
                ):
                    expected.add(vals)
        assert set(enumerate_phi(r)) == expected


def test_enumerate_phi_order_is_stable():
    phis = enumerate_phi(4)
    keys = [(max(phi), phi) for phi in phis]
    assert keys == sorted(keys)


def test_enumerate_phi_range_cap():
    with pytest.raises(ValueError):
        enumerate_phi(0)
    with pytest.raises(ValueError):
        enumerate_phi(MAX_R + 1)


def test_delta_invariants():
    for r in range(1, 6):
        for phi in enumerate_phi(r):
            delta = descents(phi)
            assert delta[0] == 0
            assert all(delta[i] <= delta[i + 1] for i in range(r - 1))
            assert 1 <= beta(phi) <= r


def test_f_map_examples():
    phi, A = f_map((3,), 5)
    assert phi == (1,) and A == (3,)

    phi, A = f_map((3, 4), 5)
    assert phi == (2, 1) and A == (2, 3)

    phi, A = f_map((1, 2), 5)
    assert phi == (1, 2) and A == (1, 3)


def test_f_map_rejects_divisible_partial_sums():
    with pytest.raises(ValueError, match="not in X_r"):
        f_map((1, 4), 5)
    with pytest.raises(ValueError):
        f_map((5, 1), 5)  # entries out of range
    with pytest.raises(ValueError):
        f_map((), 5)


def test_g_map_examples():
    assert g_map((1,), (3,), 5) == (3,)
    assert g_map((2, 1), (2, 3), 5) == (3, 4)
    assert g_map((1, 2), (1, 3), 5) == (1, 2)
    with pytest.raises(ValueError, match="length"):
        g_map((1, 2), (1,), 5)


def test_g_map_rejects_bad_residues():
    with pytest.raises(ValueError, match="not strictly increasing"):
        g_map((1, 2), (3, 2), 5)
    with pytest.raises(ValueError, match="out of range"):
        g_map((1, 2), (0, 2), 5)
    with pytest.raises(ValueError, match="out of range"):
        g_map((1, 2), (2, 5), 5)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_bijection_roundtrip(r, p):
    ok, detail = bijection_roundtrip(r, p)
    assert ok, detail


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_admissible_tuples_are_the_filtered_product_in_order(p):
    for r in range(1, 5):
        literal = [x for x in product(range(1, p), repeat=r) if all(sum(x[:i]) % p for i in range(1, r + 1))]
        assert list(_admissible(r, p)) == literal, (r, p)
    if p == 2:  # (1, 1) sums to 2, so no tuple of length 2 or more is admissible
        assert [list(_admissible(r, 2)) for r in (1, 2, 3)] == [[(1,)], [], []]


def planted_after(n, good, bad):
    """A stand-in that runs good for its first n calls and bad from then on."""
    calls = []

    def planted(*args):
        calls.append(None)
        return (good if len(calls) <= n else bad)(*args)

    return planted


def test_bijection_roundtrip_reports_a_wrong_inverse(monkeypatch):
    g = surjections._g
    monkeypatch.setattr(surjections, "_g", lambda phi, A, p, delta: g(phi, A, p, delta)[::-1])
    ok, detail = bijection_roundtrip(3, 7)
    assert not ok and detail == "g(f((1, 1, 2))) = (2, 1, 1)", detail  # (1, 1, 1) is its own reverse


def test_bijection_roundtrip_reports_a_wrong_count(monkeypatch):
    count = surjections.count_x_tuples
    monkeypatch.setattr(surjections, "count_x_tuples", lambda r, p: count(r, p) + 1)
    ok, detail = bijection_roundtrip(3, 7)
    assert not ok and detail == f"|X_3| = {count(3, 7)}, classification predicts {count(3, 7) + 1}", detail


def test_bijection_roundtrip_reports_a_wrong_forward_map(monkeypatch):
    # f is right on every tuple (the forward pass), then wrong on g's outputs
    f = surjections._f
    wrong = lambda x, p: (f(x, p)[0][::-1], f(x, p)[1])
    monkeypatch.setattr(surjections, "_f", planted_after(count_x_tuples(3, 7), f, wrong))
    ok, detail = bijection_roundtrip(3, 7)
    # (1, 2, 1) and (2, 1, 2), the maps onto [2], are their own reverses
    assert not ok and detail == "f(g((1, 2, 3), (1, 2, 3))) = ((3, 2, 1), (1, 2, 3))", detail


def test_bijection_roundtrip_reports_an_inverse_outside_the_cube(monkeypatch, capsys):
    # adding p to each entry keeps every partial sum mod p, so only the range check sees it
    g = surjections._g
    shifted = lambda phi, A, p, delta: tuple(l + p for l in g(phi, A, p, delta))
    for r, p in ((3, 7), (2, 5)):
        monkeypatch.setattr(surjections, "_g", planted_after(count_x_tuples(r, p), g, shifted))
        ok, detail = bijection_roundtrip(r, p)
        assert not ok and detail.startswith("f(g(") and f"outside (0, {p})^{r}" in detail, detail
    # the sweep reports it as a failed prime (exit 1), not as a traceback
    monkeypatch.setattr(surjections, "_g", planted_after(count_x_tuples(2, 5), g, shifted))
    assert cli.main(["verify", "bijection", "-r", "2", "--primes", "5..5", "--jobs", "1"]) == 1
    assert "p=5: fail f(g(" in capsys.readouterr().err


def test_count_x_tuples_direct():
    # direct count at r=2, p=5: exclude pairs whose sum hits 5 or 10
    assert count_x_tuples(2, 5) == 12


def test_count_x_tuples_matches_the_enumerated_maps():
    # the inclusion-exclusion count against the maps that enumerate_phi builds
    for r in range(1, MAX_R + 1):
        by_s = Counter(max(phi) for phi in enumerate_phi(r))
        for p in (5, 7, 101):
            assert count_x_tuples(r, p) == sum(n * comb(p - 1, s) for s, n in by_s.items()), (r, p)


def collapse(phi, k):
    """k summed along phi: part t is the sum of the parts k_j with phi(j) = t."""
    parts = [0] * max(phi)
    for v, kj in zip(phi, k):
        parts[v - 1] += kj
    return Index(tuple(parts))


def test_grouped_index():
    assert collapse((2, 1, 2), I(1, 10, 100)) == I(10, 101)  # position 2 to 1, positions 1 and 3 to 2
    phi = (1, 2, 1)
    assert collapse(phi, I(1, 2, 4)) == I(5, 2)
    # the grouped index is one term of the variant expansion of phi's class
    assert beta(phi) == 2
    assert dict(variant_expansion(beta(phi), I(1, 2, 4)))[I(5, 2)] == 1


def test_beta_classes_partition():
    for r in range(1, 6):
        classes = [[phi for phi in enumerate_phi(r) if beta(phi) == i] for i in range(1, r + 1)]
        assert sum(len(c) for c in classes) == len(enumerate_phi(r))
        k = Index((1,) * r)
        assert [sum(c for _, c in variant_expansion(i, k)) for i in range(1, r + 1)] == [len(c) for c in classes]


def test_variant_expansion_matches_the_literal_definition():
    for r in range(1, 7):
        # distinct powers of 10 make every collapse of every map distinct
        k = Index(tuple(10**j for j in range(r)))
        for i in range(1, r + 1):
            literal = Counter(collapse(phi, k) for phi in enumerate_phi(r) if beta(phi) == i)
            assert variant_expansion(i, k) == FormalSum(literal), (r, i)


def test_class_sizes_match_the_inclusion_exclusion_count():
    # |Phi_r|: maps [r] -> [s] with no equal neighbours, onto [s] by inclusion-exclusion
    sizes = [
        sum((-1) ** j * comb(s, j) * (s - j) * (s - j - 1) ** (r - 1) for s in range(1, r + 1) for j in range(s + 1))
        for r in range(1, MAX_R + 1)
    ]
    assert sizes == [1, 2, 8, 44, 308, 2612, 25988, 296564]
    for r, size in enumerate(sizes, start=1):
        k = Index((1,) * r)
        assert sum(c for i in range(1, r + 1) for _, c in variant_expansion(i, k)) == size, r


@pytest.mark.parametrize("k", [I(*(1,) * 9), I(*(1,) * 10), I(*(2, 1) * 5)], ids=["(1)^9", "(1)^10", "(2,1)^5"])
def test_expansions_count_every_map_past_max_r(k):
    # variant_expansion stops at MAX_R; the counting underneath does not.
    # Summed over the classes, the maps number sum_s |Phi_{r,s}| by the
    # inclusion-exclusion count of count_x_tuples' docstring.
    r = k.depth
    assert r > MAX_R
    size = sum((-1) ** j * comb(s, j) * (s - j) * (s - j - 1) ** (r - 1) for s in range(1, r + 1) for j in range(s + 1))
    assert {9: 3816548, 10: 54667412}[r] == size
    classes = surjections._expansions(k)
    assert len(classes) == r
    assert sum(c for expansion in classes for _, c in expansion) == size
    assert all(index.weight == k.weight for expansion in classes for index, _ in expansion)


def test_variant_expansion_band_one_is_identity():
    for k in indices_up_to(4, include_empty=False):
        assert variant_expansion(1, k) == FormalSum.single(k)


def test_variant_expansion_depth2():
    assert variant_expansion(2, I(3, 5)) == FormalSum.single(I(5, 3))


def test_variant_expansion_argument_errors():
    for _ in range(2):  # an error is raised on every call, not cached
        with pytest.raises(ValueError):
            variant_expansion(1, EMPTY)
        with pytest.raises(ValueError):
            variant_expansion(3, I(1, 2))
        with pytest.raises(ValueError):
            variant_expansion(0, I(1, 2))
        with pytest.raises(ValueError):
            variant_expansion(1, Index((1,) * (MAX_R + 1)))


def test_variant_expansion_is_cached_by_band_and_index():
    first = variant_expansion(2, I(1, 2, 1, 1))
    assert variant_expansion(2, Index((1, 2, 1, 1))) is first
    assert variant_expansion(3, I(1, 2, 1, 1)) is not first


@pytest.mark.parametrize("ks", [(1, 2, 4), (1, 1, 1), (2, 1, 1), (3, 1, 2)])
def test_variant_expansion_depth3_band2(ks):
    expected = FormalSum((k, 1) for k in second_class_depth3(*ks))
    assert variant_expansion(2, Index(ks)) == expected


@pytest.mark.parametrize("ks", [(1, 2, 4, 8), (1, 1, 1, 1), (2, 1, 3, 1)])
def test_variant_expansion_depth4_bands(ks):
    expected2 = FormalSum((k, 1) for k in second_class_depth4(*ks))
    assert variant_expansion(2, Index(ks)) == expected2
    expected3 = FormalSum((k, 1) for k in third_class_depth4(*ks))
    assert variant_expansion(3, Index(ks)) == expected3


def test_variant_expansion_weight_and_depth():
    for k in indices_with(6, 4):
        for i in range(1, 5):
            fs = variant_expansion(i, k)
            for idx, coef in fs:
                assert idx.weight == k.weight
                assert idx.depth <= k.depth
                assert coef >= 1
