import json
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockheis import oracles, symfunc
from fockheis.errors import ConjecturalDisabled, InvalidInput, RangeError
from fockheis.fock import (
    ExponentDenominatorWarning,
    FockVector,
    LaurentScalar,
    b_op,
    b_tau,
    heis_modp,
    heis_neg,
    is_prime,
)
from fockheis.oracles import b_rep
from fockheis.partitions import Partition, partitions_of, partitions_upto, transpose
from fockheis.schar import VirtualRep, induction_product

rational_st = st.fractions(min_value=-4, max_value=4, max_denominator=6)
scalar_st = st.lists(
    st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=4), rational_st),
    max_size=4,
).map(lambda pairs: LaurentScalar(dict(pairs)))


class TestLaurentScalar:
    def test_construction_purges_zeros(self):
        s = LaurentScalar({Fraction(1, 2): Fraction(0), Fraction(1): 2})
        assert s.monomials() == [(Fraction(1), Fraction(2))]

    @given(scalar_st, scalar_st, scalar_st)
    @settings(max_examples=80)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == LaurentScalar.zero()
        assert a * LaurentScalar.one() == a

    def test_shift_and_at_one(self):
        s = LaurentScalar.one() - LaurentScalar.v_power(6)
        assert s.shift(2) == LaurentScalar.v_power(2) - LaurentScalar.v_power(8)
        assert s.at_one() == 0
        assert s.min_exponent() == 0

    def test_lattice_check(self):
        s = LaurentScalar.v_power(Fraction(1, 4))
        assert s.exponents_in_lattice(4)
        assert not s.exponents_in_lattice(2)

    def test_json_round_trip(self):
        s = LaurentScalar({Fraction(3, 2): Fraction(-1), Fraction(0): Fraction(2, 7)})
        assert LaurentScalar.from_json(json.loads(json.dumps(s.to_json()))) == s


class TestFockVector:
    def test_vacuum_and_basis(self):
        assert FockVector.vacuum().coefficient([]) == LaurentScalar.one()
        x = FockVector.basis([2, 1], Fraction(-3))
        assert x.coefficient([2, 1]).at_one() == -3

    def test_addition_cancels(self):
        x = FockVector.basis([3, 1])
        assert (x - x).is_zero()

    def test_terms_canonical_order(self):
        x = FockVector({Partition([1, 1]): 1, Partition([2]): 1, Partition([3]): 1})
        assert [tuple(eta) for eta, _ in x.terms()] == [(3,), (2,), (1, 1)]

    def test_transpose_basis_involution(self):
        x = FockVector({Partition([3, 1]): 1, Partition([2, 2]): LaurentScalar.v_power(1)})
        assert x.transpose_basis().transpose_basis() == x

    def test_json_round_trip(self):
        x = FockVector(
            {
                Partition([3, 1]): LaurentScalar({Fraction(3, 2): Fraction(-1)}),
                Partition([]): LaurentScalar.one(),
            }
        )
        assert FockVector.from_json(json.loads(json.dumps(x.to_json()))) == x

    def test_zero_denominator_in_json(self):
        data = {"terms": [{"mu": [1], "coeff": {"monomials": [{"vexp": "1/0", "c": "1"}]}}]}
        with pytest.raises(InvalidInput):
            FockVector.from_json(data)

    def test_scale_by_laurent_scalar(self):
        x = FockVector({Partition([2]): LaurentScalar({0: 1, 1: Fraction(1, 2)})})
        s = LaurentScalar({Fraction(1, 2): 2, -1: 1})
        assert x.scale(s).coefficient([2]) == x.coefficient([2]) * s

    def test_integral_coefficients_stored_as_int(self):
        # the slices keep plain ints wherever a value is integral, so the
        # raising operators run in integer arithmetic
        x = FockVector({Partition([2]): LaurentScalar({0: Fraction(3, 2), 1: 2})})
        y = b_tau([1], 2, x.scale(2))
        assert {type(c) for s in y._g.values() for c in s.values()} == {int}
        assert {type(c) for s in x._g.values() for c in s.values()} == {int, Fraction}


class TestBOp:
    def test_vacuum_example(self):
        out = b_op(1, 3, FockVector.vacuum())
        expect = FockVector(
            {Partition([3]): 1, Partition([2, 1]): -1, Partition([1, 1, 1]): 1}
        )
        assert out == expect

    def test_zero_vector(self):
        assert b_op(2, 2, FockVector.zero()).is_zero()

    def test_on_single_box(self):
        # frozen from the border-strip oracle: p2 * s1 = s3 - s111
        out = b_op(1, 2, FockVector.basis([1]))
        assert out == FockVector({Partition([3]): 1, Partition([1, 1, 1]): -1})
        assert out.coefficient([2, 1]).is_zero()

    def test_matches_characteristic_of_induction(self):
        # character-theoretic route: induce with the alternating hook sum
        for i, b in [(1, 2), (2, 2), (1, 3), (2, 3), (1, 5)]:
            m = i * b
            hooks = VirtualRep(
                m, {Partition([m - j] + [1] * j): (-1) ** j for j in range(m)}
            )
            for mu in partitions_upto(5):
                induced = induction_product(VirtualRep.irreducible(mu), hooks)
                expect = FockVector({lam: c for lam, c in induced.terms.items()})
                assert b_op(i, b, FockVector.basis(mu)) == expect

    def test_commutativity(self):
        for b in (2, 3):
            for i in range(1, 5):
                for j in range(i, 5):
                    for mu in partitions_upto(12):
                        if (i + j) * b + mu.size > 20:
                            continue
                        x = FockVector.basis(mu)
                        assert b_op(i, b, b_op(j, b, x)) == b_op(j, b, b_op(i, b, x))

    def test_input_validation(self):
        with pytest.raises(InvalidInput):
            b_op(0, 2, FockVector.vacuum())
        with pytest.raises(InvalidInput):
            b_op(1, 0, FockVector.vacuum())


class TestBTau:
    def test_single_box_equals_b_op(self):
        for b in (1, 2, 3):
            for mu in partitions_upto(6):
                x = FockVector.basis(mu)
                assert b_tau([1], b, x) == b_op(1, b, x)

    def test_empty_tau_is_identity(self):
        x = FockVector({Partition([2, 1]): LaurentScalar.v_power(Fraction(1, 2))})
        assert b_tau([], 3, x) == x

    def test_degree_shift(self):
        for b in (2, 3):
            for tau in partitions_of(2):
                for mu in partitions_upto(6):
                    out = b_tau(tau, b, FockVector.basis(mu))
                    for lam, _ in out.terms():
                        assert lam.size == mu.size + b * tau.size

    def test_agrees_with_pieri_route(self):
        # multiplication by s_tau[p_b] via the power-sum pivot must match
        # schur_multiply(plethysm_pb(s_tau, b), .)
        for b in (2, 3):
            for tau in partitions_upto(3):
                if not tau:
                    continue
                g = symfunc.plethysm_pb(symfunc.SymFunc.schur(tau), b)
                for mu in partitions_upto(5):
                    got = b_tau(tau, b, FockVector.basis(mu))
                    prod = symfunc.schur_multiply(g, symfunc.SymFunc.schur(mu))
                    assert got == FockVector(dict(prod.terms))

    def test_pieri_composition_identity(self):
        # b_(1) twice = b_(2) + b_(1,1) on degrees <= 8
        for b in (2, 3):
            for mu in partitions_upto(8):
                x = FockVector.basis(mu)
                lhs = b_tau([1], b, b_tau([1], b, x))
                rhs = b_tau([2], b, x) + b_tau([1, 1], b, x)
                assert lhs == rhs


class TestBRep:
    def test_irreducible_reduces_to_b_tau(self):
        U = VirtualRep.irreducible([2, 1])
        op = b_rep(U, 2)
        for mu in partitions_upto(4):
            x = FockVector.basis(mu)
            assert op(x) == b_tau([2, 1], 2, x)

    def test_zero_rep(self):
        op = b_rep(VirtualRep.zero(2), 2)
        assert op(FockVector.vacuum()).is_zero()

    def test_regular_rep_of_s2_squares_b_op(self):
        U = VirtualRep(2, {Partition([2]): 1, Partition([1, 1]): 1})
        op = b_rep(U, 2)
        for mu in partitions_upto(8):
            x = FockVector.basis(mu)
            assert op(x) == b_op(1, 2, b_op(1, 2, x))


class TestHeisModP:
    def test_d1_structure(self):
        # (1 - v^{bp}) b_op(1, b, .)
        for b in (2, 3):
            for p in (2, 3, 5):
                for mu in partitions_upto(4):
                    x = FockVector.basis(mu)
                    base = b_op(1, b, x)
                    assert heis_modp([1], b, p, x) == base - base.shift(b * p)

    def test_zero_vector(self):
        assert heis_modp([2, 1], 2, 5, FockVector.zero()).is_zero()

    def test_regression_alternating_structure(self):
        # v -> 1 with signs dropped must NOT be b_tau: the d=1, b=2, p=3
        # image carries the polynomial 1 - v^6, not 1
        out = heis_modp([1], 2, 3, FockVector.vacuum())
        coeff = out.coefficient([2])
        assert coeff == LaurentScalar.one() - LaurentScalar.v_power(6)
        dropped = FockVector(
            {
                eta: LaurentScalar.from_rational(
                    sum(abs(c) for _, c in s.monomials())
                )
                for eta, s in out.terms()
            }
        )
        assert dropped != b_tau([1], 2, FockVector.vacuum())

    def test_annihilation_at_v_one_sample(self):
        for b in (2, 3):
            for tau in [Partition([1]), Partition([2]), Partition([2, 1])]:
                for mu in partitions_upto(5):
                    out = heis_modp(tau, b, 3, FockVector.basis(mu))
                    assert out.at_v_one().is_zero()

    def test_validation(self):
        with pytest.raises(InvalidInput):
            heis_modp([], 2, 3, FockVector.vacuum())
        with pytest.raises(InvalidInput):
            heis_modp([1], 2, 1, FockVector.vacuum())

    def test_exponent_lattice_warning(self):
        x = FockVector({Partition([1]): LaurentScalar.v_power(Fraction(1, 5))})
        with pytest.warns(ExponentDenominatorWarning):
            heis_modp([1], 2, 3, x)
        x_ok = FockVector({Partition([1]): LaurentScalar.v_power(Fraction(1, 4))})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            heis_modp([1], 2, 3, x_ok)


_SMALL_PARTITIONS = list(partitions_upto(5))
_TAUS = [tau for tau in partitions_upto(4) if tau]


@st.composite
def vector_case(draw):
    """(b, x): b in {2, 3} and a vector of 1-6 terms with |eta| <= 5,
    rational coefficients and v-exponents in (1/(2b))Z."""
    b = draw(st.sampled_from((2, 3)))
    exponent_st = st.integers(min_value=-12, max_value=12).map(
        lambda k: Fraction(k, 2 * b)
    )
    coeff_st = st.dictionaries(
        exponent_st, rational_st.filter(bool), min_size=1, max_size=3
    )
    terms = draw(
        st.dictionaries(
            st.sampled_from(_SMALL_PARTITIONS),
            coeff_st.map(LaurentScalar),
            min_size=1,
            max_size=6,
        )
    )
    return b, FockVector(terms)


@st.composite
def modp_case(draw):
    b, x = draw(vector_case())
    tau = draw(st.sampled_from(_TAUS))
    p = draw(st.sampled_from((2, 3, 5, 7)))
    return tau, b, p, x


class TestVectorProperties:
    @given(vector_case(), st.sampled_from([tau for tau in _TAUS if tau.size <= 3]))
    @settings(max_examples=60, deadline=None)
    def test_b_tau_matches_pieri_route(self, case, tau):
        b, x = case
        g = symfunc.plethysm_pb(symfunc.SymFunc.schur(tau), b)
        want = FockVector.zero()
        for eta, coeff in x.terms():
            prod = symfunc.schur_multiply(g, symfunc.SymFunc.schur(eta))
            want = want + FockVector(
                {lam: coeff * LaurentScalar.from_rational(c) for lam, c in prod.terms.items()}
            )
        assert b_tau(tau, b, x) == want

    @given(vector_case(), st.integers(min_value=-6, max_value=6))
    @settings(max_examples=80, deadline=None)
    def test_round_trips(self, case, k):
        b, x = case
        assert FockVector.from_json(json.loads(json.dumps(x.to_json()))) == x
        assert x.scale(Fraction(1, 2)).scale(2) == x
        assert (x - x).is_zero()
        e = Fraction(k, 2 * b)
        assert x.shift(e).min_exponent() == x.min_exponent() + e


class TestHeisModPOracle:
    @given(modp_case())
    @settings(max_examples=60, deadline=None)
    def test_closed_form_matches_koszul_layers(self, case):
        tau, b, p, x = case
        assert heis_modp(tau, b, p, x) == oracles.heis_modp_koszul(tau, b, p, x)

    def test_slices_meeting_at_one_exponent(self):
        # the v^0 and v^{bp} slices both feed the exponents bp and 2bp
        x = FockVector(
            {
                Partition([2, 1]): LaurentScalar({0: 1, 6: Fraction(-1, 2)}),
                Partition([1]): LaurentScalar({6: 3}),
            }
        )
        assert heis_modp([2], 2, 3, x) == oracles.heis_modp_koszul([2], 2, 3, x)


class TestIsPrime:
    def test_matches_trial_division(self):
        for n in range(-3, 5000):
            assert is_prime(n) == (n > 1 and all(n % d for d in range(2, int(n**0.5) + 1)))

    def test_pseudoprimes(self):
        # Carmichael numbers, a strong pseudoprime to the bases 2, 3, 5, 7,
        # and psi_12, the least strong pseudoprime to the first 12 primes
        for n in (561, 41041, 825265, 3215031751, 318665857834031151167461):
            assert not is_prime(n)

    def test_large_primes(self):
        for n in (2**31 - 1, 10**9 + 7, 10**18 + 3, 2**61 - 1):
            assert is_prime(n)

    def test_range(self):
        # exact below psi_13, the least strong pseudoprime to the 13 bases
        bound = 3317044064679887385961981
        assert not is_prime(bound - 1)
        for n in (bound, 2**89 - 1):
            with pytest.raises(RangeError):
                is_prime(n)

    def test_heis_modp_rejects_composite(self):
        with pytest.raises(InvalidInput):
            heis_modp([1], 2, 4, FockVector.vacuum())


class TestHeisNeg:
    def test_gate(self):
        with pytest.raises(ConjecturalDisabled):
            heis_neg([1], 2, 3, FockVector.vacuum())

    def test_zero_vector(self):
        assert heis_neg([1], 2, 3, FockVector.zero(), conjectural_flag=True).is_zero()

    def test_is_omega_conjugation(self):
        for tau in [Partition([1]), Partition([2]), Partition([2, 1])]:
            for mu in partitions_upto(4):
                x = FockVector.basis(mu)
                got = heis_neg(tau, 2, 3, x, conjectural_flag=True)
                want = heis_modp(
                    transpose(tau), 2, 3, x.transpose_basis()
                ).transpose_basis()
                assert got == want

    def test_double_conjugation_recovers_heis_modp(self):
        for mu in partitions_upto(4):
            x = FockVector.basis(mu)
            via_neg = heis_neg(
                Partition([2]), 3, 5, x.transpose_basis(), conjectural_flag=True
            ).transpose_basis()
            assert via_neg == heis_modp(Partition([1, 1]), 3, 5, x)

    def test_d1_transpose_of_heis_modp(self):
        # tau = (1) is self-transposed, so conjugation relates the two maps
        x = FockVector.basis([2])
        got = heis_neg([1], 2, 5, x, conjectural_flag=True)
        want = heis_modp([1], 2, 5, x.transpose_basis()).transpose_basis()
        assert got == want
