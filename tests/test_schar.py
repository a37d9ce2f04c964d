import json
from math import factorial

import pytest

from fockheis import oracles
from fockheis.errors import RangeError, SizeMismatch
from fockheis.partitions import Partition, partitions_of
from fockheis.schar import (
    VirtualRep,
    character_table,
    character_value,
    class_size,
    decompose_character,
    exterior_power_perm,
    induction_product,
    kronecker_product,
)


class TestCharacterValue:
    def test_trivial_rep_is_one(self):
        for n in range(1, 7):
            for mu in partitions_of(n):
                assert character_value(Partition([n]), mu) == 1

    def test_sign_rep(self):
        for n in range(1, 7):
            for mu in partitions_of(n):
                assert character_value(Partition([1] * n), mu) == (-1) ** (n - len(mu))

    def test_standard_example(self):
        # frozen from the permutation-character Gram-Schmidt oracle
        assert character_value(Partition([2, 1]), Partition([1, 1, 1])) == 2

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            character_value(Partition([2, 1]), Partition([2, 1, 1]))

    def test_gram_schmidt_oracle(self):
        for n in range(0, 7):
            assert character_table(n) == oracles.character_table_gram_schmidt(n)

    def test_orthogonality(self):
        for n in range(1, 8):
            parts = list(partitions_of(n))
            table = character_table(n)
            for l1 in parts:
                for l2 in parts:
                    acc = sum(
                        class_size(mu) * table[(l1, mu)] * table[(l2, mu)]
                        for mu in parts
                    )
                    assert acc == (factorial(n) if l1 == l2 else 0)


class TestClassSize:
    def test_s3(self):
        assert class_size(Partition([1, 1, 1])) == 1
        assert class_size(Partition([3])) == 2
        assert class_size(Partition([2, 1])) == 3

    def test_classes_partition_the_group(self):
        for n in range(1, 8):
            assert sum(class_size(mu) for mu in partitions_of(n)) == factorial(n)


class TestInductionProduct:
    def test_pieri_example(self):
        a = VirtualRep.irreducible([1])
        out = induction_product(a, a)
        assert out.terms == {Partition([2]): 1, Partition([1, 1]): 1}

    def test_lr_coefficient_example(self):
        r = induction_product(
            VirtualRep.irreducible([2, 1]), VirtualRep.irreducible([2, 1])
        )
        assert r.multiplicity([4, 2]) == 1

    def test_unit(self):
        alpha = VirtualRep(3, {Partition([3]): 2, Partition([2, 1]): -1})
        unit = VirtualRep(0, {Partition([]): 1})
        assert induction_product(alpha, unit).terms == alpha.terms

    def test_commutative_and_associative(self):
        reps = [
            VirtualRep.irreducible([2]),
            VirtualRep.irreducible([1, 1]),
            VirtualRep(3, {Partition([2, 1]): 1, Partition([3]): -1}),
            VirtualRep.irreducible([2, 2]),
            VirtualRep.irreducible([3, 2]),
        ]
        for a in reps:
            for b in reps:
                if a.degree + b.degree > 10:
                    continue
                assert induction_product(a, b).terms == induction_product(b, a).terms
        for a in reps:
            for b in reps:
                for c in reps:
                    if a.degree + b.degree + c.degree > 10:
                        continue
                    lhs = induction_product(induction_product(a, b), c)
                    rhs = induction_product(a, induction_product(b, c))
                    assert lhs.terms == rhs.terms


class TestKronecker:
    def test_trivial_is_unit(self):
        U = VirtualRep(2, {Partition([2]): 1, Partition([1, 1]): 1})
        assert kronecker_product(Partition([2]), U).terms == U.terms
        for lam in partitions_of(4):
            out = kronecker_product(Partition([4]), VirtualRep.irreducible(lam))
            assert out.terms == {lam: 1}

    def test_regular_rep_of_s2(self):
        U = VirtualRep(2, {Partition([2]): 1, Partition([1, 1]): 1})
        out = kronecker_product(Partition([2]), U)
        assert out.terms == {Partition([2]): 1, Partition([1, 1]): 1}

    def test_sign_twist_transposes(self):
        from fockheis.partitions import transpose

        for n in range(1, 6):
            sign = Partition([1] * n)
            for lam in partitions_of(n):
                out = kronecker_product(sign, VirtualRep.irreducible(lam))
                assert out.terms == {transpose(lam): 1}

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            kronecker_product(Partition([2]), VirtualRep.irreducible([3]))


class TestExteriorPower:
    def test_edge_cases(self):
        for d in range(1, 6):
            assert exterior_power_perm(d, 0).terms == {Partition([d]): 1}
            assert exterior_power_perm(d, d).terms == {Partition([1] * d): 1}
        assert exterior_power_perm(1, 1).terms == {Partition([1]): 1}

    def test_d3_example(self):
        assert exterior_power_perm(3, 1).terms == {
            Partition([3]): 1,
            Partition([2, 1]): 1,
        }

    def test_hook_closed_form(self):
        for d in range(1, 7):
            for i in range(d + 1):
                assert (
                    exterior_power_perm(d, i).terms
                    == oracles.exterior_power_hook_form(d, i).terms
                )

    def test_matrix_oracle(self):
        for d in range(1, 5):
            for i in range(d + 1):
                assert (
                    exterior_power_perm(d, i).terms
                    == oracles.exterior_power_matrix_oracle(d, i).terms
                )

    def test_alternating_sum_vanishes(self):
        for d in range(1, 7):
            acc = VirtualRep.zero(d)
            for i in range(d + 1):
                acc = acc + (-1) ** i * exterior_power_perm(d, i)
            assert acc.is_zero()

    def test_range_errors(self):
        with pytest.raises(RangeError):
            exterior_power_perm(3, 4)
        with pytest.raises(RangeError):
            exterior_power_perm(3, -1)
        with pytest.raises(RangeError):
            exterior_power_perm(0, 0)


class TestVirtualRepPlumbing:
    def test_json_round_trip(self):
        U = VirtualRep(3, {Partition([2, 1]): -2, Partition([3]): 1})
        data = json.loads(json.dumps(U.to_json()))
        assert VirtualRep.from_json(data).terms == U.terms

    def test_json_term_order_is_canonical(self):
        U = VirtualRep(3, {Partition([1, 1, 1]): 1, Partition([3]): 1})
        mus = [t["mu"] for t in U.to_json()["terms"]]
        assert mus == [[3], [1, 1, 1]]

    def test_zero_purge(self):
        U = VirtualRep(2, {Partition([2]): 0})
        assert U.is_zero()

    def test_decompose_character_rejects_non_virtual(self):
        from fockheis.errors import InvalidInput

        values = {mu: 1 for mu in partitions_of(3)}
        values[Partition([3])] = 2  # not a virtual character
        with pytest.raises(InvalidInput):
            decompose_character(3, values)

