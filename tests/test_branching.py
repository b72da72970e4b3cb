import doctest
import math
from itertools import permutations

import pytest

import akblocks.branching as br_mod
from akblocks.branching import _degree, _swap_context, _walk
from akblocks import (
    Caps,
    InputError,
    LaurentPolynomial,
    LemmaViolation,
    Multicharge,
    Node,
    branching_polynomial,
    degree_spectrum,
    enumerate_blocks,
    inversions,
    mahonian,
    order_degree,
    phi,
    scopes_condition,
)


def test_doctests():
    failures, _ = doctest.testmod(br_mod)
    assert failures == 0


# --- Laurent polynomials -----------------------------------------------------


def test_polynomial_algebra():
    p = LaurentPolynomial({1: 1, -1: 1})
    assert p * p == LaurentPolynomial({2: 1, 0: 2, -2: 1})
    assert (p.coefficient(1), p.coefficient(0), p.coefficient(-1)) == (1, 0, 1)
    assert p * LaurentPolynomial() == LaurentPolynomial()
    assert p * LaurentPolynomial.one() == p


def test_polynomial_drops_zero_coefficients():
    p = LaurentPolynomial({0: 1, 1: 1}) * LaurentPolynomial({0: 1, 1: -1})
    assert p == LaurentPolynomial({0: 1, 2: -1})
    assert repr(p) == "-v^2 + 1"
    assert not LaurentPolynomial({3: 0})


def test_polynomial_rejects_non_integshape():
    # neither True nor a float or string degree may pass as an integer
    for coeffs in ({0: 1.5}, {0: True}, {2.5: 1}, {"2": 1}):
        with pytest.raises(InputError):
            LaurentPolynomial(coeffs)


def test_polynomial_json_roundtrip():
    p = LaurentPolynomial({3: 1, -1: 2})
    assert p.to_json() == {"3": 1, "-1": 2}


# --- Mahonian distribution ---------------------------------------------------


def test_mahonian_small_values():
    assert mahonian(0) == (1,)
    assert mahonian(1) == (1,)
    assert mahonian(2) == (1, 1)
    assert mahonian(3) == (1, 2, 2, 1)


def test_mahonian_matches_inversion_histogram():
    for d in range(5):
        hist = [0] * (d * (d - 1) // 2 + 1)
        for sigma in permutations(range(d)):
            hist[inversions(sigma)] += 1
        assert mahonian(d) == tuple(hist)


def test_degree_spectrum_values():
    assert degree_spectrum(0) == LaurentPolynomial.one()
    assert degree_spectrum(2) == LaurentPolynomial({1: 1, -1: 1})
    assert degree_spectrum(3) == LaurentPolynomial({3: 1, 1: 2, -1: 2, -3: 1})
    # the quantum factorial against the reference that enumerates all d! permutations
    for d in range(10):
        ell = d * (d - 1) // 2
        counts = mahonian(d)
        assert degree_spectrum(d) == LaurentPolynomial({ell - 2 * k: x for k, x in enumerate(counts)})


def test_degree_spectrum_past_the_enumeration_cap():
    # the enumerated reference stops at 9 letters; the product has no bound of its own
    with pytest.raises(InputError):
        mahonian(10)
    for d in (10, 11, 12):
        ell = d * (d - 1) // 2
        s = degree_spectrum(d)
        coeffs = [s.coefficient(ell - 2 * k) for k in range(ell + 1)]
        assert coeffs == coeffs[::-1]
        assert sum(coeffs) == math.factorial(d)
        assert s == LaurentPolynomial({ell - 2 * k: x for k, x in enumerate(coeffs)})


# --- degrees -----------------------------------------------------------------


def test_n_below_and_above_validate_nodes():
    mc = Multicharge(2, (0,))
    mp = ((2, 1),)
    with pytest.raises(InputError):
        _degree(mp, mc, Node(1, 1, 1), -1)  # not removable
    with pytest.raises(InputError):
        _degree(mp, mc, Node(1, 2, 1), 1)  # not addable


def test_two_node_fixture():
    """Stripping two nodes of the same residue: ascending order carries
    degree +1, the swapped order -1."""
    mc = Multicharge(2, (0,))
    mp = ((2, 1),)
    assert order_degree(mp, mc, 1, (1, 2)) == 1
    assert order_degree(mp, mc, 1, (2, 1)) == -1
    assert branching_polynomial(mp, mc, 1) == LaurentPolynomial({1: 1, -1: 1})


def test_three_node_fixture():
    mc = Multicharge(3, (0, 0, 0))
    mp = ((1,), (1,), (1,))
    poly = branching_polynomial(mp, mc, 0)
    assert poly == LaurentPolynomial({3: 1, 1: 2, -1: 2, -3: 1})
    degrees = sorted(
        order_degree(mp, mc, 0, sigma) for sigma in permutations((1, 2, 3))
    )
    assert degrees == [-3, -1, -1, 1, 1, 3]


def test_induction_orders_land_back():
    # adding the stripped nodes back in order sigma has degree
    # 2*inv(sigma) - ell: the degree of stripping them in the reverse order
    caps = Caps(max_n=6, max_r=3, max_e=4, max_delta=6)
    orders = 0
    for charge in ((0,), (0, 0), (0, 1), (0, 0, 0), (1, 0, 2)):
        for e in (2, 3, 4):
            mc = Multicharge(e, charge)
            for n in range(7):
                for blk in enumerate_blocks(n, mc, caps):
                    for i in range(e):
                        rep = scopes_condition(blk.lex_least, mc, i)
                        if not (rep.holds and 0 <= rep.delta <= 4):
                            continue
                        ell = rep.delta * (rep.delta - 1) // 2
                        for mp in blk.members:
                            _, image, adds = _swap_context(mp, mc, i, caps, rep)
                            for sigma in permutations(range(1, rep.delta + 1)):
                                d = _walk(mc, image, adds, 1, sigma, mp, f"rebuilding {mp}", {})
                                assert d == 2 * inversions(sigma) - ell, (mp, i, sigma)
                                orders += 1
    assert orders > 1000
    mc, mp = Multicharge(3, (0, 0, 0)), ((1,), (1,), (1,))
    _, image, adds = _swap_context(mp, mc, 0, caps)
    for sigma in permutations((1, 2, 3)):
        reverse = order_degree(mp, mc, 0, tuple(reversed(sigma)))
        assert _walk(mc, image, adds, 1, sigma, mp, f"rebuilding {mp}", {}) == reverse


def test_every_order_reaches_the_swap_image():
    mc = Multicharge(4, (1, 0, 2))
    mp = ((1, 1), (2,), (2, 1))
    for i in range(4):
        from akblocks import scopes_condition

        rep = scopes_condition(mp, mc, i)
        if not (rep.holds and rep.delta >= 0):
            continue
        target = phi(mp, mc, i)
        for sigma in permutations(range(1, rep.delta + 1)):
            order_degree(mp, mc, i, sigma)  # raises LemmaViolation on failure
        assert target == phi(mp, mc, i)


def test_order_degree_rejects_bad_sigma():
    mc = Multicharge(2, (0,))
    with pytest.raises(InputError):
        order_degree(((2, 1),), mc, 1, (1, 3))


def test_branch_requires_condition():
    # lam=(1) at e=2: delta_0 < 0 or the condition fails at some residue
    mc = Multicharge(2, (0,))
    with pytest.raises((InputError, LemmaViolation)):
        branching_polynomial(((1, 1, 1, 1),), mc, 0)
        branching_polynomial(((1, 1, 1, 1),), mc, 1)
