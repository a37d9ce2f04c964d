from fractions import Fraction
from math import factorial

import pytest

from fockheis import fock, oracles, schar
from fockheis.cherednik import (
    ParamLambda,
    SimpleLabel,
    block_of,
    block_shift,
    character_pipeline,
    degree_window_ok,
    eu_equivalent,
    euler_relation_scalar,
    leading_term,
    lowest_eu_eigenvalue,
    p_stability_interval,
    possible_supports,
    preferred_label,
    preorder_leq,
    sigma_forbidden,
    simple_image_neg,
    simple_image_pos,
    support_dim,
    verma_hilbert,
)
from fockheis.errors import (
    InvalidInput,
    InvalidParam,
    MissingTable,
    OnWall,
)
from fockheis.partitions import (
    Partition,
    d_stat,
    is_coprime,
    partitions_of,
    partitions_upto,
    partwise_add,
    transpose,
)


class TestParamLambda:
    def test_lowest_terms_required(self):
        with pytest.raises(InvalidInput):
            ParamLambda(2, 4)
        with pytest.raises(InvalidInput):
            ParamLambda(1, 0)

    def test_value(self):
        assert ParamLambda(-5, 2).value == Fraction(-5, 2)
        assert ParamLambda.from_fraction(Fraction(3, 7)) == ParamLambda(3, 7)


class TestSigmaForbidden:
    def test_examples(self):
        assert sigma_forbidden(ParamLambda(1, 2), 3) is False
        assert sigma_forbidden(ParamLambda(-1, 2), 3) is True
        assert sigma_forbidden(ParamLambda(-1, 2), 1) is False

    def test_denominator_boundary(self):
        assert sigma_forbidden(ParamLambda(-2, 3), 3) is True
        assert sigma_forbidden(ParamLambda(-2, 3), 2) is False
        assert sigma_forbidden(ParamLambda(-3, 2), 5) is False  # below -1


class TestEulerEigenvalue:
    def test_examples(self):
        assert lowest_eu_eigenvalue([2], ParamLambda(1, 2)) == Fraction(-1, 2)
        assert lowest_eu_eigenvalue([1, 1], ParamLambda(1, 2)) == Fraction(3, 2)

    def test_single_row_closed_form(self):
        for n in range(1, 9):
            for lam in [ParamLambda(1, 2), ParamLambda(2, 3), ParamLambda(5, 1)]:
                assert lowest_eu_eigenvalue([n], lam) == -lam.value * n * (n - 1) / 2

    def test_preferred_label(self):
        lam = ParamLambda(1, 3)
        lab = preferred_label([3], lam)
        assert lab.m == Fraction(-1)


class TestEulerRelationScalar:
    def test_examples(self):
        assert euler_relation_scalar(1, ParamLambda(7, 2)) == Fraction(7, 2)
        assert euler_relation_scalar(3, ParamLambda(1, 3)) == -2
        assert euler_relation_scalar(2, ParamLambda(1, 2)) == 0


class TestEuEquivalence:
    def test_examples(self):
        lam = ParamLambda(1, 2)
        assert eu_equivalent([2, 1], [2, 1], lam) is True
        assert eu_equivalent([1], [3], lam) is True
        assert eu_equivalent([1], [2], lam) is False

    def test_equivalence_relation_up_to_10(self):
        # reflexive + symmetric + transitive, checked through row identity:
        # related labels must have identical relation rows
        for lam in [ParamLambda(1, 2), ParamLambda(2, 3)]:
            parts = list(partitions_upto(10))
            rows = []
            for e1 in parts:
                rows.append(
                    frozenset(
                        j for j, e2 in enumerate(parts) if eu_equivalent(e1, e2, lam)
                    )
                )
            for i, row in enumerate(rows):
                assert i in row  # reflexive
                for j in row:
                    assert rows[j] == row  # symmetry + transitivity


class TestBlockShift:
    def test_examples(self):
        assert block_shift(0, ParamLambda(3, 2)) == (Fraction(1, 2), 1)
        assert block_shift(Fraction(1, 3), ParamLambda(5, 1)) == (Fraction(1, 3), 0)
        assert block_shift(0, ParamLambda(1, 3)) == (Fraction(0), 1)


class TestSimpleImagePos:
    def test_coprime_example(self):
        lam = ParamLambda(1, 2)
        out = simple_image_pos(preferred_label([1], lam), [1], lam)
        assert [(tuple(l.eta), mult) for l, mult in out] == [((3,), 1)]
        assert out[0][0].m == lowest_eu_eigenvalue([3], lam)

    def test_non_coprime_example(self):
        # eta = (3) = empty + 3*(1); images are 3*sigma over Ind((1)x(1))
        lam = ParamLambda(1, 3)
        out = simple_image_pos(preferred_label([3], lam), [1], lam)
        assert [(tuple(l.eta), mult) for l, mult in out] == [((6,), 1), ((3, 3), 1)]

    def test_empty_tau_identity(self):
        lam = ParamLambda(2, 3)
        lab = SimpleLabel(Partition([4, 1]), Fraction(7, 3))
        assert simple_image_pos(lab, [], lam) == [(lab, 1)]

    def test_offset_preserved(self):
        lam = ParamLambda(1, 2)
        lab = SimpleLabel(Partition([1]), Fraction(5, 2))  # offset 5/2 from c=0
        out = simple_image_pos(lab, [1], lam)
        (label, mult), = out
        assert label.m - lowest_eu_eigenvalue(label.eta, lam) == Fraction(5, 2)

    def test_rejects_bad_parameters(self):
        lab = SimpleLabel(Partition([1]), Fraction(0))
        with pytest.raises(InvalidParam):
            simple_image_pos(lab, [1], ParamLambda(-1, 2))
        with pytest.raises(InvalidParam):
            simple_image_pos(lab, [1], ParamLambda(0, 1))

    def test_rejects_m_outside_lattice(self):
        lam = ParamLambda(1, 2)
        with pytest.raises(InvalidInput):
            simple_image_pos(SimpleLabel(Partition([1]), Fraction(1, 3)), [1], lam)

    def test_composition_consistency_small(self):
        # the full grid is acceptance criterion 6
        from fockheis import young

        lam = ParamLambda(1, 2)
        for eta in partitions_upto(5):
            lab = preferred_label(eta, lam)
            lhs: dict = {}
            for mid, m1 in simple_image_pos(lab, [1], lam):
                for out, m2 in simple_image_pos(mid, [1], lam):
                    key = (out.eta, out.m)
                    lhs[key] = lhs.get(key, 0) + m1 * m2
            rhs: dict = {}
            for tau, c in young.schur_product_basis((1,), (1,)):
                for out, m in simple_image_pos(lab, Partition(tau), lam):
                    key = (out.eta, out.m)
                    rhs[key] = rhs.get(key, 0) + c * m
            assert lhs == rhs

    def test_block_consistency(self):
        # outputs stay eu-equivalent to each other and the degree residue
        # moves by |tau| block shifts
        p = 7
        for lam in [ParamLambda(1, 2), ParamLambda(1, 3)]:
            for eta in partitions_upto(5):
                lab = preferred_label(eta, lam)
                blk = block_of(lab, lam, p)
                for tau in [Partition([1]), Partition([2]), Partition([1, 1])]:
                    out = simple_image_pos(lab, tau, lam)
                    sigma = blk.sigma
                    for _ in range(tau.size):
                        sigma, _carry = block_shift(sigma, lam)
                    for label, _m in out:
                        assert eu_equivalent(eta, label.eta, lam)
                        for other, _ in out:
                            assert eu_equivalent(label.eta, other.eta, lam)
                        out_blk = block_of(label, lam, p)
                        assert out_blk.alpha == blk.alpha
                        assert out_blk.sigma == sigma


class TestSimpleImageNeg:
    def test_paper_label_map(self):
        lamm = ParamLambda(-5, 2)
        lab = SimpleLabel(Partition([1]), lowest_eu_eigenvalue([1], lamm))
        out = simple_image_neg(lab, [1], lamm)
        assert [(tuple(l.eta), mult) for l, mult in out] == [((1, 1, 1), 1)]

    def test_empty_tau_identity(self):
        lamm = ParamLambda(-5, 2)
        lab = SimpleLabel(Partition([2, 1]), Fraction(1, 2))
        assert simple_image_neg(lab, [], lamm) == [(lab, 1)]

    def test_non_coprime_input_routes_through_general_logic(self):
        # (2,2) is not coprime to 2, so the single-label formula does not
        # apply; the transposed composite logic yields two images, one of
        # them the formula value (2,2,1,1)
        lamm = ParamLambda(-5, 2)
        lab = SimpleLabel(Partition([2, 2]), lowest_eu_eigenvalue([2, 2], lamm))
        out = simple_image_neg(lab, [1], lamm)
        images = {tuple(l.eta): mult for l, mult in out}
        assert images == {(2, 2, 1, 1): 1, (3, 3): 1}

    def test_rejects_m_outside_lattice(self):
        # the same (1/b)Z check as simple_image_pos
        lamm = ParamLambda(-5, 2)
        with pytest.raises(InvalidInput):
            simple_image_neg(SimpleLabel(Partition([1]), Fraction(1, 3)), [1], lamm)

    def test_rejects_parameters_at_least_minus_one(self):
        lab = SimpleLabel(Partition([1]), Fraction(0))
        with pytest.raises(InvalidParam):
            simple_image_neg(lab, [1], ParamLambda(-1, 2))
        with pytest.raises(InvalidParam):
            simple_image_neg(lab, [1], ParamLambda(1, 2))

    def test_transpose_conjugation_on_coprime_grid(self):
        lam_pos = ParamLambda(1, 2)
        lamm = ParamLambda(-5, 2)
        for eta in partitions_upto(6):
            if not is_coprime(eta, 2):
                continue
            for tau in partitions_upto(2):
                if not tau:
                    continue
                neg = simple_image_neg(
                    SimpleLabel(transpose(eta), lowest_eu_eigenvalue(transpose(eta), lamm)),
                    tau,
                    lamm,
                )
                pos = simple_image_pos(
                    preferred_label(eta, lam_pos), transpose(tau), lam_pos
                )
                neg_parts = sorted(tuple(l.eta) for l, _ in neg)
                pos_parts = sorted(tuple(transpose(l.eta)) for l, _ in pos)
                assert neg_parts == pos_parts


class TestSupports:
    def test_support_dim_examples(self):
        assert support_dim([4, 1], 3) == 3
        assert support_dim([3], 3) == 1
        for b in (2, 3, 4):
            for eta in partitions_upto(8):
                if is_coprime(eta, b):
                    assert support_dim(eta, b) == eta.size

    def test_support_dim_on_constructed_pairs(self):
        for b in (2, 3):
            for mu in partitions_upto(8):
                if not is_coprime(mu, b):
                    continue
                for tau in partitions_upto(3):
                    eta = partwise_add(mu, b, tau)
                    assert support_dim(eta, b) == mu.size + tau.size

    def test_possible_supports_examples(self):
        assert possible_supports(5, 2) == [(5, 0, 5), (3, 1, 4), (1, 2, 3)]
        assert possible_supports(1, 2) == [(1, 0, 1)]
        assert possible_supports(2, 2) == [(2, 0, 2), (0, 1, 1)]


class TestStabilityInterval:
    def test_no_walls_for_n1(self):
        assert p_stability_interval(0, 7, 1) == (None, None)

    def test_example_p7_n2(self):
        assert p_stability_interval(0, 7, 2) == (-3, 2)
        # walls are ... -4, 3, 10 ...
        assert p_stability_interval(4, 7, 2) == (4, 9)

    def test_interval_of_length_one(self):
        # p=5, n=2: walls at 2 mod 5; z=1 between walls -3 and 2: [-2, 1]
        lo, hi = p_stability_interval(1, 5, 2)
        assert (lo, hi) == (-2, 1)

    def test_on_wall(self):
        with pytest.raises(OnWall):
            p_stability_interval(3, 7, 2)

    def test_large_prime(self):
        # the single wall residue is -1/2 = 500000003 mod p
        assert p_stability_interval(0, 1000000007, 2) == (-500000003, 500000002)

    def test_eighteen_digit_prime(self):
        # 10^18 + 3 is prime; its wall residue is -1/2 = (p - 1)/2
        assert p_stability_interval(0, 10**18 + 3, 2) == (-(10**17 * 5 + 1), 10**17 * 5)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            p_stability_interval(0, 561, 2)  # Carmichael number
        with pytest.raises(InvalidInput):
            p_stability_interval(0, 6, 2)  # composite
        with pytest.raises(InvalidInput):
            p_stability_interval(0, 3, 5)  # p <= n

    def test_walls_reduce_into_sigma(self):
        p, n = 11, 3
        lo, hi = p_stability_interval(0, p, n)
        for wall in (lo - 1, hi + 1):
            with pytest.raises(OnWall):
                p_stability_interval(wall, p, n)


class TestVermaHilbert:
    def test_one_variable(self):
        h = verma_hilbert([1], 0, 6)
        assert h.coeffs == (1, 1, 1, 1, 1, 1, 1)

    def test_two_variables_trivial(self):
        h = verma_hilbert([2], 0, 6)
        assert h.coeffs == (1, 1, 2, 2, 3, 3, 4)

    def test_offset_and_lowest_power(self):
        for eta in partitions_upto(8):
            m = Fraction(1, 2)
            h = verma_hilbert(eta, m, d_stat(eta) + 2)
            assert h.lowest_power() == m + d_stat(eta)

    def test_monomial_oracle(self):
        for n in range(1, 4):
            for eta in partitions_of(n):
                h = verma_hilbert(eta, 0, 5)
                for d in range(6):
                    assert h.coeffs[d] == oracles.polynomial_multiplicities(n, d).get(
                        eta, 0
                    )

    def test_empty_partition(self):
        h = verma_hilbert([], 0, 3)
        assert h.coeffs == (1, 0, 0, 0)

    def test_matches_character_inner_products(self):
        # (1/n!) sum_mu |C_mu| chi_eta(mu) prod_{k in mu} 1/(1 - q^k), the
        # character sum the hook-length product replaces
        for eta in partitions_upto(6):
            total = [0] * 21
            for mu in partitions_of(eta.size):
                series = [1] + [0] * 20
                for k in mu:
                    for d in range(k, 21):
                        series[d] += series[d - k]
                weight = schar.class_size(mu) * schar.character_value(eta, mu)
                total = [t + weight * c for t, c in zip(total, series)]
            n_fact = factorial(eta.size)
            assert all(t % n_fact == 0 for t in total)
            assert verma_hilbert(eta, 0, 20).coeffs == tuple(t // n_fact for t in total)


class TestCharacterPipeline:
    def test_coprime_passthrough(self):
        lam = ParamLambda(1, 2)
        vec = fock.FockVector.basis([1])
        out = character_pipeline([1], lam, 5, {Partition([1]): vec})
        assert out == vec

    def test_missing_table(self):
        lam = ParamLambda(1, 2)
        with pytest.raises(MissingTable):
            character_pipeline([2], lam, 5, {})
        with pytest.raises(MissingTable):
            character_pipeline([1], lam, 5, {})

    def test_b_equals_one_uses_empty_coprime_part(self):
        lam = ParamLambda(2, 1)
        out = character_pipeline(
            [1], lam, 5, {Partition([]): fock.FockVector.vacuum()}
        )
        assert not out.is_zero()

    def test_vacuum_to_single_row(self):
        # eta = (b): the d=1 operator applied to the vacuum class
        for b in (2, 3):
            lam = ParamLambda(1, b)
            table = {Partition([]): fock.FockVector.vacuum()}
            out = character_pipeline([b], lam, 5, table)
            expect = fock.heis_modp([1], b, 5, fock.FockVector.vacuum())
            assert out == expect
            lead = leading_term(out)
            assert tuple(lead[0]) == (b,) and lead[1] == 0 and lead[2] == 1

    def test_leading_coefficient_pm_one_small(self):
        for b in (2, 3):
            lam = ParamLambda(1, b)
            table = {
                mu: fock.FockVector.basis(mu)
                for mu in partitions_upto(6)
                if is_coprime(mu, b)
            }
            for eta in partitions_upto(6):
                out = character_pipeline(eta, lam, 3, table)
                lead = leading_term(out)
                assert lead is not None
                assert lead[1] == 0
                assert lead[2] in (1, -1)

    def test_rejects_nonpositive_parameter(self):
        with pytest.raises(InvalidParam):
            character_pipeline([2], ParamLambda(-1, 2), 5, {})


class TestLeadingTerm:
    def test_tie_break_is_canonical(self):
        vec = fock.FockVector(
            {Partition([2, 1]): 1, Partition([3]): 1, Partition([1, 1, 1]): 1}
        )
        lead = leading_term(vec)
        assert tuple(lead[0]) == (3,)

    def test_zero_vector(self):
        assert leading_term(fock.FockVector.zero()) is None

    def test_min_exponent_selects_leading(self):
        vec = fock.FockVector(
            {
                Partition([3]): fock.LaurentScalar.v_power(2),
                Partition([1, 1]): fock.LaurentScalar.v_power(-1, -5),
            }
        )
        lead = leading_term(vec)
        assert tuple(lead[0]) == (1, 1) and lead[1] == -1 and lead[2] == -5


class TestPreorderPredicates:
    def test_preorder(self):
        lam = ParamLambda(1, 2)
        l1 = SimpleLabel(Partition([2]), Fraction(0))
        l2 = SimpleLabel(Partition([2]), Fraction(2))
        # a*N*(N-1) = 2 for N=2, 0 for N=1
        assert preorder_leq(l1, l2, lam, 2)
        assert not preorder_leq(l1, l2, lam, 1)
        assert preorder_leq(l2, l1, lam, 1)

    def test_window(self):
        lam = ParamLambda(1, 2)
        l1 = SimpleLabel(Partition([2]), Fraction(0))
        l2 = SimpleLabel(Partition([2]), Fraction(4))
        # 2a*N*(N-1) = 4 for N=2, 0 for N=1
        assert degree_window_ok(l1, l2, lam, 2)
        assert not degree_window_ok(l1, l2, lam, 1)


class TestBlockOf:
    def test_alpha_zero_for_preferred_lift(self):
        lam = ParamLambda(1, 2)
        for eta in partitions_upto(5):
            blk = block_of(preferred_label(eta, lam), lam, 7)
            assert blk.alpha == 0

    def test_alpha_shifts_with_grading(self):
        lam = ParamLambda(1, 2)
        lab = preferred_label([2], lam)
        shifted = SimpleLabel(lab.eta, lab.m + 1)
        assert block_of(shifted, lam, 7).alpha == (-1) % 7
