"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every comparison is exact (integers and fractions), no tolerances.
"""

from fractions import Fraction

from fockheis import oracles, young
from fockheis.cherednik import (
    ParamLambda,
    lowest_eu_eigenvalue,
    possible_supports,
    preferred_label,
    simple_image_neg,
    simple_image_pos,
    support_dim,
    verma_hilbert,
)
from fockheis.fock import FockVector, b_tau, heis_modp
from fockheis.partitions import (
    Partition,
    coprime_decompose,
    d_stat,
    is_coprime,
    partitions_of,
    partitions_upto,
    partwise_add,
    transpose,
)
from fockheis.schar import (
    VirtualRep,
    character_table,
    class_size,
    exterior_power_perm,
)
from fockheis.symfunc import SymFunc, characteristic, power_sum_to_schur, schur_multiply


def _report(num: int, name: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance] criterion {num:2d} ({name}): {status}")
    assert not failures, f"criterion {num} ({name}): first failure {failures[0]}"


def _nonempty_partition_pairs(total: int):
    """All ordered pairs (tau1, tau2) of nonempty partitions, |tau1|+|tau2| <= total."""
    for d1 in range(1, total):
        for tau1 in partitions_of(d1):
            for d2 in range(1, total - d1 + 1):
                for tau2 in partitions_of(d2):
                    yield tau1, tau2


def test_criterion_01_power_sum_identity():
    failures = []
    for m in range(1, 9):
        hooks = VirtualRep(
            m, {Partition([m - j] + [1] * j): (-1) ** j for j in range(m)}
        )
        if power_sum_to_schur(m).terms != characteristic(hooks).terms:
            failures.append(m)
    _report(1, "power-sum identity m<=8", failures)


def test_criterion_02_character_table_oracle():
    failures = []
    for n in range(0, 7):
        if character_table(n) != oracles.character_table_gram_schmidt(n):
            failures.append(("table", n))
    from math import factorial

    for n in range(1, 8):
        parts = list(partitions_of(n))
        table = character_table(n)
        for l1 in parts:
            for l2 in parts:
                acc = sum(
                    class_size(mu) * table[(l1, mu)] * table[(l2, mu)] for mu in parts
                )
                if acc != (factorial(n) if l1 == l2 else 0):
                    failures.append(("orthogonality", n, l1, l2))
    _report(2, "character tables n<=6 + orthogonality n<=7", failures)


def test_criterion_03_lr_dual_path():
    failures = []
    for a in range(0, 9):
        for mu in partitions_of(a):
            for b in range(0, 9 - a):
                for nu in partitions_of(b):
                    fast = {
                        lam: int(c)
                        for lam, c in schur_multiply(
                            SymFunc.schur(mu), SymFunc.schur(nu)
                        ).terms.items()
                    }
                    slow = oracles.schur_product_by_tableaux(mu, nu)
                    if fast != slow:
                        failures.append((tuple(mu), tuple(nu)))
    _report(3, "LR iterated-Pieri vs tableau enumeration, |mu|+|nu|<=8", failures)


def test_criterion_04_heisenberg_multiplicativity():
    failures = []
    for b in (2, 3):
        for tau1, tau2 in _nonempty_partition_pairs(4):
            lr = young.schur_product_basis(tuple(tau1), tuple(tau2))
            for mu in partitions_upto(12):
                x = FockVector.basis(mu)
                lhs = b_tau(tau1, b, b_tau(tau2, b, x))
                rhs = FockVector.zero()
                for tau, c in lr:
                    rhs = rhs + b_tau(Partition(tau), b, x).scale(c)
                if lhs != rhs:
                    failures.append((b, tuple(tau1), tuple(tau2), tuple(mu)))
    _report(4, "raising-operator multiplicativity deg<=12", failures)


def test_criterion_05_modp_vanishing():
    failures = []
    p = 3
    for b in (2, 3):
        for d in range(1, 5):
            for tau in partitions_of(d):
                for mu in partitions_upto(10):
                    x = FockVector.basis(mu)
                    out = heis_modp(tau, b, p, x)
                    # all v-exponents are multiples of b*p, so v -> 1 realizes
                    # the formal substitution v^{bp} -> 1
                    if not out.at_v_one().is_zero():
                        failures.append((b, tuple(tau), tuple(mu)))
                    if out != oracles.heis_modp_koszul(tau, b, p, x):
                        failures.append(("koszul", b, tuple(tau), tuple(mu)))
    _report(5, "mod-p closed form vs Koszul layers + annihilation, d<=4 deg<=10", failures)


def _exhaustive_coprime_decompositions(eta, b):
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


def test_criterion_06_label_map_consistency():
    failures = []
    for b in (2, 3):
        lam = ParamLambda(1, b)
        for tau1, tau2 in _nonempty_partition_pairs(4):
            lr = young.schur_product_basis(tuple(tau1), tuple(tau2))
            for eta in partitions_upto(8):
                lab = preferred_label(eta, lam)
                lhs: dict = {}
                for mid, m1 in simple_image_pos(lab, tau1, lam):
                    for out, m2 in simple_image_pos(mid, tau2, lam):
                        key = (out.eta, out.m)
                        lhs[key] = lhs.get(key, 0) + m1 * m2
                rhs: dict = {}
                for tau, c in lr:
                    for out, m in simple_image_pos(lab, Partition(tau), lam):
                        key = (out.eta, out.m)
                        rhs[key] = rhs.get(key, 0) + c * m
                if lhs != rhs:
                    failures.append((b, tuple(tau1), tuple(tau2), tuple(eta)))
    for b in (2, 3):
        for mu in partitions_upto(8):
            if not is_coprime(mu, b):
                continue
            for tau in partitions_upto(3):
                eta = partwise_add(mu, b, tau)
                if coprime_decompose(eta, b) != (mu, tau):
                    failures.append(("decompose", b, tuple(mu), tuple(tau)))
                if _exhaustive_coprime_decompositions(eta, b) != [(mu, tau)]:
                    failures.append(("uniqueness", b, tuple(mu), tuple(tau)))
    _report(6, "label-map composition + decomposition uniqueness", failures)


def test_criterion_07_support_arithmetic():
    failures = []
    for b in (2, 3):
        for mu in partitions_upto(8):
            if not is_coprime(mu, b):
                continue
            for tau in partitions_upto(3):
                eta = partwise_add(mu, b, tau)
                if support_dim(eta, b) != mu.size + tau.size:
                    failures.append((b, tuple(mu), tuple(tau)))
    for n in range(0, 13):
        for b in range(2, 5):
            rows = possible_supports(n, b)
            expect = [(n - b * l, l, n - b * l + l) for l in range(n // b + 1)]
            if rows != expect or len(rows) != n // b + 1:
                failures.append(("enumeration", n, b))
            for k, l, dim in rows:
                if k + b * l != n or dim != k + l or k < 0 or l < 0:
                    failures.append(("entry", n, b, (k, l, dim)))
    _report(7, "support dimensions + stratum enumeration", failures)


def test_criterion_08_exterior_power_oracle():
    failures = []
    for d in range(1, 6):
        for i in range(d + 1):
            fast = exterior_power_perm(d, i).terms
            slow = oracles.exterior_power_matrix_oracle(d, i).terms
            if fast != slow:
                failures.append((d, i))
    _report(8, "exterior powers vs permutation matrices d<=5", failures)


def test_criterion_09_verma_hilbert():
    failures = []
    for n in range(1, 5):
        for eta in partitions_of(n):
            series = verma_hilbert(eta, 0, 6)
            for d in range(7):
                expect = oracles.polynomial_multiplicities(n, d).get(eta, 0)
                if series.coeffs[d] != expect:
                    failures.append(("oracle", tuple(eta), d))
    for eta in partitions_upto(8):
        for m in (Fraction(0), Fraction(1, 2), Fraction(-3)):
            series = verma_hilbert(eta, m, d_stat(eta) + 2)
            if series.lowest_power() != m + d_stat(eta):
                failures.append(("lowest", tuple(eta), m))
    _report(9, "graded dimension series vs monomial decomposition", failures)


def test_criterion_10_negative_label_map():
    failures = []
    for b, a in ((2, -5), (3, -7)):
        lam_neg = ParamLambda(a, b)
        lam_pos = ParamLambda(1, b)
        for eta in partitions_upto(8):
            if not is_coprime(eta, b):
                continue
            for tau in partitions_upto(3):
                if not tau:
                    continue
                eta_t = transpose(eta)
                neg_label = preferred_label(eta_t, lam_neg)
                neg = simple_image_neg(neg_label, tau, lam_neg)
                pos = simple_image_pos(
                    preferred_label(eta, lam_pos), transpose(tau), lam_pos
                )
                neg_parts = sorted(
                    (tuple(l.eta), m) for l, m in neg
                )
                conj_parts = sorted(
                    (tuple(transpose(l.eta)), m) for l, m in pos
                )
                if neg_parts != conj_parts:
                    failures.append((b, tuple(eta), tuple(tau), "partitions"))
                if len(neg) == 1:
                    # paper-exact single image for coprime input
                    label, mult = neg[0]
                    want = transpose(partwise_add(eta, b, transpose(tau)))
                    if mult != 1 or label.eta != want:
                        failures.append((b, tuple(eta), tuple(tau), "map"))
                for label, _ in neg:
                    offset = label.m - lowest_eu_eigenvalue(label.eta, lam_neg)
                    if offset != 0:
                        failures.append((b, tuple(eta), tuple(tau), "degree"))
    _report(10, "negative-parameter label map via transpose twist", failures)
