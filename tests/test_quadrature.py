"""Sphere/ball quadrature against exact rational moments."""

import math
from fractions import Fraction

import numpy as np
import pytest

from monokit.basis import basis_elements, basis_for_degree
from monokit.bohr import _bohr_block_factors
from monokit.moments import inner_sphere, sphere_moment
from monokit.mpoly import MPoly, X0, X1, X2
from monokit.quadrature import (_CONJ_TABLE, FourierCoeffs, QuadratureRule, basis_samples,
                                bin_factors, bin_table, block_table, eval_bins, eval_terms,
                                fourier_expand, fourier_synthesize, gram_matrix_ball,
                                gram_matrix_quaternion, grid_powers, radial_moment, sphere_gram,
                                sphere_norms)
from reference_routes import (block_table_loop, eval_bins_slot_loop, eval_grid, inner_ball_h,
                              inner_product_B, inner_product_S, inner_sphere_h,
                              sc_inner_product_S, sphere_grid, sphere_pairs_full)


def test_weight_total_is_sphere_area():
    for degree in (2, 7, 14):
        rule = QuadratureRule.for_degree(degree)
        assert abs(rule.node_weights().sum() - 4.0 * math.pi) < 1e-12


def test_monomial_moments_are_exact():
    rule = QuadratureRule.for_degree(12)
    x0, rho, phi = rule.grid()
    x0, x1, x2 = np.broadcast_arrays(x0, rho * np.cos(phi), rho * np.sin(phi))
    for a, b, c in ((0, 0, 0), (2, 0, 0), (1, 1, 0), (4, 2, 0), (2, 2, 2),
                    (3, 1, 2), (0, 6, 4), (5, 5, 0)):
        value = float(np.einsum("tp,tp->", x0 ** a * x1 ** b * x2 ** c, rule.node_weights()))
        exact = float(sphere_moment(a, b, c)) * math.pi
        assert abs(value - exact) < 1e-12 * max(1.0, abs(exact))


def test_rule_rejects_insufficient_degree():
    rule = QuadratureRule.for_degree(2)
    p = X0 * X0 * X1 * X1
    with pytest.raises(ValueError):
        sc_inner_product_S(p, p, rule)


def test_radial_moment():
    for power in range(0, 16):
        assert abs(radial_moment(power) - 1.0 / (power + 1)) < 1e-15


def test_inner_products_match_exact_moments():
    rule = QuadratureRule.for_degree(8)
    for n in range(3):
        for e in basis_for_degree(n):
            for g in basis_for_degree(n):
                quad = inner_product_S(e.poly, g.poly, rule)
                exact = [float(c) * math.pi for c in
                         inner_sphere_h(e.poly, g.poly).components()]
                assert np.allclose(quad, exact, atol=1e-12)


def test_ball_inner_product_matches_exact_moments():
    rule = QuadratureRule.for_degree(8)
    for n in range(3):
        for k in range(3):
            e = basis_for_degree(n)[1]
            g = basis_for_degree(k)[0]
            quad = inner_product_B(e.poly, g.poly, rule)
            exact = [float(c) * math.pi for c in
                     inner_ball_h(e.poly, g.poly).components()]
            assert np.allclose(quad, exact, atol=1e-12)


def test_gram_matrix_is_identity():
    gram = gram_matrix_ball(4)
    assert gram.shape == (35, 35)
    assert float(np.max(np.abs(gram - np.eye(35)))) < 1e-12


def test_gram_matrix_ball_matches_pairwise_reference():
    # one inner_product_S per pair, normalized by sqrt(2n+3)/norm_S each side
    rule = QuadratureRule.for_degree(8)
    elements = [e for n in range(5) for e in basis_for_degree(n)]
    reference = np.zeros((35, 35))
    for i, e in enumerate(elements):
        for j, g in enumerate(elements):
            n, k = e.index.n, g.index.n
            sphere = inner_product_S(e.poly, g.poly, rule)[0]
            scale = math.sqrt((2 * n + 3) * (2 * k + 3)) / (float(e.norm_S) * float(g.norm_S))
            reference[i, j] = sphere * radial_moment(n + k + 2) * scale
    assert float(np.max(np.abs(gram_matrix_ball(4) - reference))) < 1e-13


def test_gram_matrix_quaternion_matches_pairwise_reference():
    for n in range(4):
        rule = QuadratureRule.for_degree(2 * n)
        block = basis_for_degree(n)
        reference = np.array([[inner_product_S(e.poly, g.poly, rule)
                               / (float(e.norm_S) * float(g.norm_S)) for g in block]
                              for e in block])
        assert float(np.max(np.abs(gram_matrix_quaternion(n) - reference))) < 1e-13


def test_gram_matrix_quaternion_is_its_block_of_the_sphere_gram_bit_for_bit():
    # the slice of the full reduction equals the reduction over the block alone
    for n in (1, 3, 6):
        norms = sphere_norms(basis_for_degree(n))
        rule = QuadratureRule.for_degree(2 * n)
        samples = basis_samples(rule, n)[-len(norms):]
        pairs = np.einsum("itpa,jtpb,tp->ijab", samples, samples, rule.node_weights())
        block = np.einsum("ijab,abk->ijk", pairs, _CONJ_TABLE) / np.outer(norms, norms)[..., None]
        assert np.array_equal(gram_matrix_quaternion(n), block)


def test_basis_samples_are_shared_and_read_only():
    rule = QuadratureRule.for_degree(6)
    samples = basis_samples(rule, 2)
    assert samples.shape == (3 + 5 + 7, 4, 7, 4)
    assert basis_samples(QuadratureRule.for_degree(6), 2) is samples
    assert not samples.flags.writeable
    with pytest.raises(ValueError):
        samples[0, 0, 0, 0] = 1.0
    table, bins = block_table(3)
    assert table.shape == (9, 4, 4, 4) and bins == ((0, 3), (1, 2), (2, 1), (3, 0))
    assert block_table(3)[0] is table
    assert table.nbytes < 50_000 > block_table(8)[0].nbytes
    factors = _bohr_block_factors(5)
    assert _bohr_block_factors(5) is factors
    gram = sphere_gram(2)
    assert gram.shape == (3 + 5 + 7, 3 + 5 + 7, 4)
    assert sphere_gram(2) is gram
    for shared in (table, gram) + factors:
        assert not shared.flags.writeable
        with pytest.raises(ValueError):
            shared[(0,) * shared.ndim] = 1.0


def test_basis_samples_equal_the_per_element_route_bit_for_bit():
    for degree in (4, 12, 18):
        rule = QuadratureRule.for_degree(degree)
        reference = np.stack([eval_terms(e.poly.float_terms(), *rule.grid())
                              for e in basis_elements(8)])
        samples = basis_samples(rule, 8)
        assert samples.shape == reference.shape
        assert samples.tobytes() == reference.tobytes()  # -0.0 and 0.0 differ here


def test_block_table_equals_the_term_loop_bit_for_bit():
    # every block through degree 16 holds all n+1 powers of x0, so the bins are (a, n - a)
    for n in range(17):
        table, bins = block_table(n)
        want, want_bins = block_table_loop(n)
        assert repr(bins) == repr(want_bins)  # equal, and plain ints rather than NumPy ints
        assert table.shape == want.shape and table.dtype == want.dtype
        assert table.tobytes() == want.tobytes()


def test_eval_bins_of_the_blocks_equals_the_slot_loop_bit_for_bit():
    # the reference sums each slot into the rows in turn and each live (element, component)
    # over the bins in its own einsum; the kernel's two einsums must give the same bits
    for n in range(17):
        table, bins = block_table(n)
        for grid in (QuadratureRule.for_degree(2 * n).grid(), sphere_grid(65, 128)):
            powers = grid_powers(*grid, n)
            want = eval_bins_slot_loop(table, bins, powers)
            got = eval_bins(table, bin_factors(bins, powers))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            buffer = np.empty(got.size)  # a caller's buffer holds the same result
            into = eval_bins(table, bin_factors(bins, powers), buffer)
            assert np.shares_memory(into, buffer) and into.tobytes() == want.tobytes()


def test_eval_bins_of_term_lists_equals_the_slot_loop_bit_for_bit():
    # one list per element, all of them in one table, two dead components, no terms at all;
    # at scattered points, at one point (0-d, and as arrays shaped like a tensor grid's or
    # not) and along the x0 axis
    rng = np.random.default_rng(29)
    x0, x1, x2 = rng.uniform(-1.0, 1.0, size=(3, 300))
    lists = [e.poly.float_terms() for e in basis_elements(8)]
    lists.append([(exp, (0.0, a, 0.0, -a)) for exp, (a, *_) in lists[-1]])
    tables = [bin_table([terms]) for terms in lists] + [bin_table(lists), bin_table([[]])]
    points = [(x0, np.hypot(x1, x2), np.arctan2(x2, x1)), (0.3, 0.4, 1.1),
              ([0.3], [0.4], [1.1]), ([[0.3]], [[0.4]], [[1.1]]), (x0, 0.0, 0.0)]
    for table, bins in tables:
        for at in points:
            powers = grid_powers(*at, max(map(max, bins), default=0))
            want = eval_bins_slot_loop(table, bins, powers)
            got = eval_bins(table, bin_factors(bins, powers))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_sphere_gram_equals_the_full_reduction_bit_for_bit():
    # each block reduced against the elements from it on, the rest mirrored
    for degree in (1, 4, 8):
        pairs = sphere_pairs_full(QuadratureRule.for_degree(2 * degree), degree)
        want = np.einsum("ijab,abk->ijk", pairs, _CONJ_TABLE)
        assert sphere_gram(degree).tobytes() == want.tobytes()


def test_one_read_only_rule_per_degree():
    rule = QuadratureRule.for_degree(6)
    assert QuadratureRule.for_degree(6) is rule
    assert QuadratureRule.for_degree(8) is not rule
    with pytest.raises(TypeError):  # a keyword would key a second cache entry
        QuadratureRule.for_degree(max_degree=6)
    # the grid, its weights and its power tables are built once per rule and shared
    memos = rule.grid() + (rule.node_weights(),) + rule.powers(6)
    assert all(a is b for a, b in zip(memos, rule.grid() + (rule.node_weights(),) + rule.powers(6)))
    for shared in (rule.t_nodes, rule.t_weights) + memos:
        with pytest.raises(ValueError):
            shared[(0,) * shared.ndim] = 0.0


def test_rule_grid_is_factored():
    rule = QuadratureRule.for_degree(6)
    x0, rho, phi = rule.grid()
    assert x0.shape == rho.shape == (4, 1) and phi.shape == (1, 7)
    assert np.allclose(x0 ** 2 + rho ** 2, 1.0, atol=1e-15)


def test_scalar_parts_are_orthogonal_on_sphere():
    rule = QuadratureRule.for_degree(12)
    pairs = [(n, m) for n in range(5) for m in range(n + 1)]
    for i, (n, m) in enumerate(pairs):
        p = basis_for_degree(n)[max(0, 2 * m - 1)].poly.sc()
        norm_p = math.sqrt(float(inner_sphere(p, p)) * math.pi)
        for nn, mm in pairs[i + 1:]:
            q = basis_for_degree(nn)[max(0, 2 * mm - 1)].poly.sc()
            norm_q = math.sqrt(float(inner_sphere(q, q)) * math.pi)
            value = sc_inner_product_S(p, q, rule)
            assert inner_sphere(p, q) == 0
            assert abs(value) < 1e-12 * max(1.0, norm_p * norm_q)


def test_quaternion_gram_off_diagonal_is_not_zero():
    # normalized: real-inner-product orthonormal, but quaternion-valued
    # products keep unit vector parts off the diagonal
    gram = gram_matrix_quaternion(0)
    assert np.allclose(gram[0, 0], [1, 0, 0, 0], atol=1e-12)
    assert np.allclose(gram[0, 1], [0, -1, 0, 0], atol=1e-12)
    assert np.allclose(gram[1, 0], [0, 1, 0, 0], atol=1e-12)
    assert np.allclose(gram[1, 2], [0, 0, 0, -1], atol=1e-12)


def test_fourier_round_trip():
    f = (Fraction(3, 7) * basis_for_degree(0)[0].poly
         - Fraction(2, 5) * basis_for_degree(2)[3].poly
         + Fraction(1, 3) * basis_for_degree(1)[1].poly)
    coeffs = fourier_expand(f, 4, QuadratureRule.for_degree(12))
    theta = np.linspace(0.0, math.pi, 19)[:, None]
    phi = np.linspace(0.0, 2.0 * math.pi, 37)[None, :]
    x0 = np.cos(theta) * np.ones_like(phi)
    s = np.sin(theta)
    recon = fourier_synthesize(coeffs, np.cos(theta), s, phi)
    direct = eval_grid(f, x0, s * np.cos(phi), s * np.sin(phi))
    assert float(np.max(np.abs(recon - direct))) < 1e-10
    # reference: one eval_grid per element, scaled to the orthonormal system
    reference = np.zeros(x0.shape + (4,))
    for n in range(5):
        for e, c in zip(basis_for_degree(n), coeffs.block(n)):
            scale = c * math.sqrt(2 * n + 3) / float(e.norm_S)
            reference += scale * eval_grid(e.poly, x0, s * np.cos(phi), s * np.sin(phi))
    assert float(np.max(np.abs(recon - reference))) <= 1e-13 * float(np.max(np.abs(reference)))
    absent = [v for (n, _), v in coeffs.values.items() if n == 3]
    assert max(abs(v) for v in absent) < 1e-12


def test_fourier_expand_refuses_a_rule_that_is_not_exact_enough():
    # a degree-4 input against degree-4 elements needs a rule exact to degree 8; below
    # that the X:2 coefficient would come out wrong instead of failing
    element = basis_for_degree(4)[3]
    assert element.index.label == "X:2"
    for degree in (2, 7):
        with pytest.raises(ValueError, match=f"rule exact to degree {degree}, need 8"):
            fourier_expand(element.poly, 4, QuadratureRule.for_degree(degree))
    coeffs = fourier_expand(element.poly, 4, QuadratureRule.for_degree(8))
    assert coeffs.coefficient(4, "X:2") == pytest.approx(element.norm_S / math.sqrt(11),
                                                         rel=1e-12)


def test_fourier_coefficients_container():
    coeffs = FourierCoeffs(1, {(0, "X:0"): 1.0, (1, "X:1"): -2.0})
    assert coeffs.coefficient(0, "X:0") == 1.0
    assert coeffs.block(1) == [0.0, -2.0, 0.0, 0.0, 0.0]
    d = coeffs.to_json_dict()
    assert d["max_degree"] == 1
    assert {"n": 0, "index": "X:0", "value": 1.0} in d["coefficients"]


def test_integration_is_deterministic():
    rule = QuadratureRule.for_degree(10)
    p = basis_for_degree(3)[2].poly
    a = sc_inner_product_S(p, p, rule)
    b = sc_inner_product_S(p, p, QuadratureRule.for_degree(10))
    assert a == b
