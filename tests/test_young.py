from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockheis import fock, symfunc, young
from fockheis.partitions import Partition, partitions_of, partitions_upto
from fockheis.symfunc import POWER, SymFunc


def shapes_upto(n: int):
    return st.integers(0, n).flatmap(lambda k: st.sampled_from(list(partitions_of(k))))


def abacus_chain(lam, strips) -> dict:
    return {young.mask_shape(m): c for m, c in young.strip_chain_masks(lam, strips).items()}


class TestBetaSetLayer:
    @settings(max_examples=150, deadline=None)
    @given(shapes_upto(12), shapes_upto(12))
    def test_chain_matches_row_interval_route(self, lam, strips):
        lam, strips = tuple(lam), tuple(strips)
        assert abacus_chain(lam, strips) == dict(young.powersum_chain_on_basis(strips, lam))

    @settings(max_examples=150, deadline=None)
    @given(shapes_upto(20), st.integers(0, 10))
    def test_mask_round_trip(self, lam, extra):
        lam = tuple(lam)
        assert young.mask_shape(young._mask(lam, len(lam) + extra)) == lam

    def test_mask_shape_returns_partition(self):
        assert isinstance(young.mask_shape(young._mask((3, 1), 5)), Partition)
        assert young.mask_shape(0) == () and young.mask_shape(0b111) == ()

    @pytest.mark.parametrize(
        "lam, strips",
        [((), ()), ((), (1,)), ((), (4,)), ((), (3, 2, 1)), ((1,), (6,)), ((2, 2), (3, 3))],
    )
    def test_edge_cases(self, lam, strips):
        assert abacus_chain(lam, strips) == dict(young.powersum_chain_on_basis(strips, lam))

    def test_strips_below_the_diagram(self):
        # p_6 s_1: five of the six strips reach rows below (1)
        assert abacus_chain((1,), (6,)) == {
            (7,): 1,
            (5, 2): -1,
            (4, 2, 1): 1,
            (3, 2, 1, 1): -1,
            (2, 2, 1, 1, 1): 1,
            (1, 1, 1, 1, 1, 1, 1): -1,
        }
        # p_3 p_3 s_{2,2}: two vertical strips of three stack below (2,2)
        assert abacus_chain((2, 2), (3, 3))[(2, 2, 1, 1, 1, 1, 1, 1)] == 1

    def test_rejects_nonpositive_strip(self):
        with pytest.raises(ValueError):
            young.strip_chain_masks((1,), (0,))


def _plethysm_layers(tau, b: int):
    """s_tau[p_b] split by the powers s^j of prod_{k in rho} (1 - s^k), in
    the Schur basis through symfunc: [layer_0, ..., layer_d]."""
    d = sum(tau)
    layers = [dict() for _ in range(d + 1)]
    for rho, c in symfunc.schur_to_power_sums(tau).terms.items():
        poly = [1] + [0] * d
        for k in rho:
            poly = [poly[j] - (poly[j - k] if j >= k else 0) for j in range(d + 1)]
        for j, w in enumerate(poly):
            if w:
                scaled = Partition([b * x for x in rho])
                layers[j][scaled] = layers[j].get(scaled, Fraction(0)) + w * c
    return [symfunc.to_schur(SymFunc(POWER, layer)) for layer in layers]


class TestKernelsAgainstSymfunc:
    @pytest.mark.parametrize("b", [1, 2])
    def test_b_tau_kernel(self, b):
        for tau in partitions_upto(3):
            if not tau:
                continue
            g = symfunc.plethysm_pb(SymFunc.schur(tau), b)
            for eta in partitions_upto(4):
                want = symfunc.schur_multiply(g, SymFunc.schur(eta)).terms
                assert dict(fock._b_tau_on_basis(tuple(tau), b, tuple(eta))) == want

    @pytest.mark.parametrize("b", [1, 2])
    def test_heis_modp_kernels(self, b):
        for tau in partitions_upto(3):
            if not tau:
                continue
            layers = _plethysm_layers(tuple(tau), b)
            for eta in partitions_upto(4):
                got = fock._heis_modp_on_basis(tuple(tau), b, tuple(eta))
                assert len(got) == len(layers)
                for kernel, layer in zip(got, layers):
                    want = symfunc.schur_multiply(layer, SymFunc.schur(eta)).terms
                    assert dict(kernel) == want
