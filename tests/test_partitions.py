import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockheis.errors import InvalidInput
from fockheis.partitions import (
    Partition,
    canonical_key,
    content_sum,
    coprime_decompose,
    d_stat,
    is_coprime,
    partitions_of,
    partitions_upto,
    partwise_add,
    transpose,
)

partition_st = st.lists(st.integers(1, 10), max_size=8).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


class TestPartitionType:
    def test_canonical_strips_trailing_zeros(self):
        assert Partition([3, 1, 0, 0]) == Partition([3, 1])
        assert Partition([0]) == Partition([])

    def test_rejects_increasing(self):
        with pytest.raises(InvalidInput):
            Partition([1, 3])

    def test_rejects_negative(self):
        with pytest.raises(InvalidInput):
            Partition([2, -1])

    def test_rejects_interior_zero(self):
        with pytest.raises(InvalidInput):
            Partition([2, 0, 1])

    @pytest.mark.parametrize("part", ["a", "2", 1.5, 2.0, True, None])
    def test_rejects_non_integer_part(self, part):
        with pytest.raises(InvalidInput):
            Partition([part])

    def test_size_and_parts(self):
        eta = Partition([4, 1])
        assert eta.size == 5
        assert eta.part(1) == 4 and eta.part(2) == 1 and eta.part(3) == 0

    def test_json_round_trip(self):
        eta = Partition([5, 3, 3, 1])
        assert Partition.from_json(eta.to_json()) == eta

    def test_canonical_order(self):
        parts = list(partitions_of(4))
        assert parts == sorted(parts, key=canonical_key)
        assert parts[0] == Partition([4]) and parts[-1] == Partition([1, 1, 1, 1])

    def test_partition_counts(self):
        # p(0..10) = 1,1,2,3,5,7,11,15,22,30,42
        counts = [len(list(partitions_of(n))) for n in range(11)]
        assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


class TestContentSum:
    def test_examples(self):
        assert content_sum(Partition([2, 1])) == 0
        assert content_sum(Partition([3])) == 3
        assert content_sum(Partition([])) == 0

    def test_cell_enumeration_agrees(self):
        for eta in partitions_upto(9):
            brute = sum(
                (j + 1) - (i + 1)
                for i, row in enumerate(eta)
                for j in range(row)
            )
            assert content_sum(eta) == brute

    @given(partition_st)
    @settings(max_examples=150)
    def test_transpose_antisymmetry(self, eta):
        assert content_sum(transpose(eta)) == -content_sum(eta)


class TestDStat:
    def test_examples(self):
        assert d_stat(Partition([7])) == 0
        assert d_stat(Partition([1, 1, 1])) == 3
        assert d_stat(Partition([3, 1])) == 1

    @given(partition_st)
    @settings(max_examples=150)
    def test_choose_two_identity(self, eta):
        # d_eta equals the sum of C(col, 2) over transposed columns
        cols = transpose(eta)
        assert d_stat(eta) == sum(c * (c - 1) // 2 for c in cols)


class TestTranspose:
    def test_examples(self):
        assert transpose(Partition([3, 1])) == Partition([2, 1, 1])
        assert transpose(Partition([])) == Partition([])
        assert transpose(Partition([1, 1, 1])) == Partition([3])

    def test_involution_up_to_20(self):
        for eta in partitions_upto(20):
            assert transpose(transpose(eta)) == eta


class TestPartwiseAdd:
    def test_examples(self):
        assert partwise_add(Partition([1, 1]), 3, Partition([1])) == Partition([4, 1])
        eta = Partition([5, 2, 1])
        assert partwise_add(eta, 7, Partition([])) == eta
        assert partwise_add(Partition([1]), 2, Partition([2])) == Partition([5])

    def test_non_canonical_tau_rejected(self):
        with pytest.raises(InvalidInput):
            partwise_add(Partition([2]), 2, Partition([0, 1]))

    def test_always_partition_for_canonical_inputs(self):
        # the zero-padded sum of weakly decreasing sequences decreases weakly,
        # so NotAPartition is a defensive invariant only
        for mu in partitions_upto(6):
            for tau in partitions_upto(4):
                out = partwise_add(mu, 2, tau)
                assert out.size == mu.size + 2 * tau.size


class TestCoprime:
    def test_examples(self):
        assert is_coprime(Partition([3, 3, 1]), 3) is True
        assert is_coprime(Partition([4]), 4) is False
        assert is_coprime(Partition([2, 1]), 1) is False
        assert is_coprime(Partition([]), 1) is True

    def test_decompose_examples(self):
        assert coprime_decompose(Partition([4, 1]), 3) == (
            Partition([1, 1]),
            Partition([1]),
        )
        assert coprime_decompose(Partition([3]), 3) == (Partition([]), Partition([1]))
        eta = Partition([3, 3, 1])
        assert coprime_decompose(eta, 3) == (eta, Partition([]))

    def test_decompose_requires_b_at_least_2(self):
        with pytest.raises(InvalidInput):
            coprime_decompose(Partition([2]), 1)

    def _exhaustive_decompositions(self, eta, b):
        """Every (mu, tau) with eta = mu + b*tau and mu coprime to b."""
        found = []
        for t in range(eta.size // b + 1):
            for tau in partitions_of(t):
                k = max(len(eta), len(tau))
                mu = [eta.part(i) - b * tau.part(i) for i in range(1, k + 1)]
                if any(x < 0 for x in mu):
                    continue
                if any(mu[i] > mu[i - 1] for i in range(1, len(mu))):
                    continue
                mu = Partition(mu)
                if is_coprime(mu, b):
                    found.append((mu, tau))
        return found

    def test_uniqueness_by_exhaustive_search(self):
        for b in range(2, 6):
            for eta in partitions_upto(12):
                mu, tau = coprime_decompose(eta, b)
                assert partwise_add(mu, b, tau) == eta
                assert is_coprime(mu, b)
                assert self._exhaustive_decompositions(eta, b) == [(mu, tau)]
