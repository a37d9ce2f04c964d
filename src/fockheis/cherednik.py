"""Label and grading bookkeeping for graded module categories over the
rational parameter a/b.

The central quantities are exact rationals: the lowest Euler eigenvalue
c_eta = d_eta - (a/b) * cont(eta) of a simple labelled by a partition, the
block residues it determines, and the way raising operators move labels

    eta = mu + b*tau'  |-->  mu + b*sigma   with multiplicity c^sigma_{tau', tau}.

Grading convention: a label (eta, m) names the graded simple whose lowest
degree is m; the preferred lift has m = c_eta and every operation preserves
the offset m - c_eta.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd

from . import fock, young
from .errors import (
    InvalidInput,
    InvalidParam,
    MissingTable,
    OnWall,
    RangeError,
)
from .partitions import (
    Partition,
    canonical_key,
    content_sum,
    coprime_decompose,
    d_stat,
    partwise_add,
    transpose,
)


@dataclass(frozen=True)
class ParamLambda:
    """Rational parameter a/b in lowest terms, b positive."""

    a: int
    b: int

    def __post_init__(self):
        if self.b < 1:
            raise InvalidInput(f"denominator must be positive, got {self.b}")
        if gcd(abs(self.a), self.b) != 1:
            raise InvalidInput(f"{self.a}/{self.b} is not in lowest terms")

    @property
    def value(self) -> Fraction:
        return Fraction(self.a, self.b)

    @classmethod
    def from_fraction(cls, q) -> "ParamLambda":
        q = Fraction(q)
        return cls(q.numerator, q.denominator)


@dataclass(frozen=True)
class SimpleLabel:
    """Pair (eta, m): partition plus lowest degree in (1/b) Z."""

    eta: Partition
    m: Fraction

    def __post_init__(self):
        object.__setattr__(self, "eta", Partition(self.eta))
        object.__setattr__(self, "m", Fraction(self.m))

    def to_json(self) -> dict:
        return {"eta": list(self.eta), "m": str(self.m)}

    @classmethod
    def from_json(cls, data) -> "SimpleLabel":
        try:
            return cls(Partition(data["eta"]), Fraction(data["m"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"malformed label JSON: {data!r}") from exc


@dataclass(frozen=True)
class BlockId:
    """Block data: Euler residue mod p and degree residue mod Z."""

    alpha: int
    sigma: Fraction


def sigma_forbidden(lam: ParamLambda, n: int) -> bool:
    """True iff a/b lies in the singular set {-c/d : 0 < c < d <= n}.

    These are exactly the rationals in (-1, 0) whose reduced denominator is
    at most n.
    """
    q = lam.value
    return -1 < q < 0 and q.denominator <= n


def lowest_eu_eigenvalue(eta, lam: ParamLambda) -> Fraction:
    """c_eta = d_eta - (a/b) * cont(eta), the Euler eigenvalue on the lowest
    degree component of the simple labelled by eta."""
    eta = Partition(eta)
    return d_stat(eta) - lam.value * content_sum(eta)


def preferred_label(eta, lam: ParamLambda) -> SimpleLabel:
    """The preferred graded lift: lowest degree c_eta."""
    eta = Partition(eta)
    return SimpleLabel(eta, lowest_eu_eigenvalue(eta, lam))


def euler_relation_scalar(n: int, lam: ParamLambda) -> Fraction:
    """The scalar n*lambda - n(n-1)/2 relating the two Euler elements."""
    if n < 1:
        raise RangeError(f"n must be positive, got {n}")
    return n * lam.value - Fraction(n * (n - 1), 2)


def eu_equivalent(eta1, eta2, lam: ParamLambda) -> bool:
    """Block equivalence of labels: sizes differ by a multiple d*b and
    c_{eta2} - c_{eta1} - d * a(b-1)/2 is an integer."""
    eta1 = Partition(eta1)
    eta2 = Partition(eta2)
    diff = eta2.size - eta1.size
    if diff % lam.b != 0:
        return False
    d = diff // lam.b
    delta = (
        lowest_eu_eigenvalue(eta2, lam)
        - lowest_eu_eigenvalue(eta1, lam)
        - d * Fraction(lam.a * (lam.b - 1), 2)
    )
    return delta.denominator == 1


def block_shift(sigma, lam: ParamLambda) -> tuple[Fraction, int]:
    """Degree-residue shift under one raising step: sigma + a(b-1)/2.

    Returns (residue in [0,1), integer carry).
    """
    s = Fraction(sigma) + Fraction(lam.a * (lam.b - 1), 2)
    carry = floor(s)
    return s - carry, carry


def block_of(label: SimpleLabel, lam: ParamLambda, p: int) -> BlockId:
    """Block of a label: alpha = (c_eta - m) mod p, sigma = m mod Z."""
    if p < 2:
        raise InvalidParam(f"p must be at least 2, got {p}")
    x = lowest_eu_eigenvalue(label.eta, lam) - label.m
    if x.denominator % p == 0:
        raise InvalidParam(f"denominator {x.denominator} is not invertible mod {p}")
    alpha = x.numerator * pow(x.denominator, -1, p) % p
    sigma = label.m - floor(label.m)
    return BlockId(alpha, sigma)


def _decompose(eta: Partition, b: int) -> tuple[Partition, Partition]:
    # b = 1 admits the single decomposition (empty, eta)
    if b == 1:
        return Partition(), eta
    return coprime_decompose(eta, b)


def _validate_positive(lam: ParamLambda, n: int) -> None:
    if lam.value <= 0 or sigma_forbidden(lam, n):
        raise InvalidParam(
            f"parameter {lam.a}/{lam.b} must be positive and nonsingular"
        )


def simple_image_pos(label: SimpleLabel, tau, lam: ParamLambda) -> list:
    """Image multiset of a simple label under the raising operator for tau.

    Decompose eta = mu + b*tau'; the output labels are mu + b*sigma with
    multiplicity the Littlewood-Richardson number c^sigma_{tau', tau}, each
    carrying the input's degree offset m - c_eta on top of its own
    preferred lowest degree.  Returns [(SimpleLabel, multiplicity), ...] in
    canonical order.
    """
    tau = Partition(tau)
    label = SimpleLabel(label.eta, label.m)
    _validate_positive(lam, label.eta.size + lam.b * tau.size)
    if (label.m * lam.b).denominator != 1:
        raise InvalidInput(f"lowest degree {label.m} is not in (1/{lam.b})Z")
    if not tau:
        return [(label, 1)]
    mu, tau1 = _decompose(label.eta, lam.b)
    offset = label.m - lowest_eu_eigenvalue(label.eta, lam)
    out = []
    for sigma, mult in young.schur_product_basis(tuple(tau1), tuple(tau)):
        out_eta = partwise_add(mu, lam.b, Partition(sigma))
        m = lowest_eu_eigenvalue(out_eta, lam) + offset
        out.append((SimpleLabel(out_eta, m), mult))
    out.sort(key=lambda pair: canonical_key(pair[0].eta))
    return out


def simple_image_neg(label: SimpleLabel, tau, lam_minus: ParamLambda) -> list:
    """Transposed-basis label map for a negative parameter a/b with a < -b.

    The input partition is read as the transpose of some eta; for eta
    coprime to b the image is the single label with partition
    (eta + b * tau^t)^t.  General inputs route through the transpose of the
    positive-parameter logic.  Returns [(SimpleLabel, multiplicity), ...].
    """
    tau = Partition(tau)
    label = SimpleLabel(label.eta, label.m)
    if lam_minus.value >= -1:
        raise InvalidParam(
            f"parameter {lam_minus.a}/{lam_minus.b} must be below -1"
        )
    if (label.m * lam_minus.b).denominator != 1:
        raise InvalidInput(f"lowest degree {label.m} is not in (1/{lam_minus.b})Z")
    if not tau:
        return [(label, 1)]
    b = lam_minus.b
    eta = transpose(label.eta)
    mu, tau1 = _decompose(eta, b)
    offset = label.m - lowest_eu_eigenvalue(label.eta, lam_minus)
    out = []
    for sigma, mult in young.schur_product_basis(tuple(tau1), tuple(transpose(tau))):
        out_eta = transpose(partwise_add(mu, b, Partition(sigma)))
        m = lowest_eu_eigenvalue(out_eta, lam_minus) + offset
        out.append((SimpleLabel(out_eta, m), mult))
    out.sort(key=lambda pair: canonical_key(pair[0].eta))
    return out


def support_dim(eta, b: int) -> int:
    """Dimension of support: |mu| + |tau| for the decomposition eta = mu + b*tau."""
    if b < 2:
        raise InvalidInput(f"b must be at least 2, got {b}")
    mu, tau = coprime_decompose(Partition(eta), b)
    return mu.size + tau.size


def possible_supports(n: int, b: int) -> list[tuple[int, int, int]]:
    """All (k, l, dim) with k + b*l = n: k free coordinates plus l groups of
    b equal coordinates, support dimension k + l."""
    if n < 0:
        raise RangeError(f"n must be nonnegative, got {n}")
    if b < 2:
        raise InvalidInput(f"b must be at least 2, got {b}")
    return [(n - b * l, l, n - b * l + l) for l in range(n // b + 1)]


def p_stability_interval(z: int, p: int, n: int):
    """Maximal integer interval around z avoiding the singular residues mod p.

    The walls are the integers whose residue mod p lies in
    {a * b^{-1} mod p : 0 < -a < b <= n}.  Returns (lo, hi) with None
    marking an unbounded end (no walls at all).  The ends lie one step
    inside the nearest wall residues on either side of z mod p, found by
    bisecting the sorted residues.
    """
    if not fock.is_prime(p):
        raise InvalidInput(f"p must be prime, got {p}")
    if n < 1:
        raise RangeError(f"n must be positive, got {n}")
    if p <= n:
        raise InvalidInput(f"p must exceed n so all denominators are invertible, got p={p}, n={n}")
    walls = set()
    for b in range(2, n + 1):
        inv_b = pow(b, -1, p)
        for a in range(-(b - 1), 0):
            walls.add(a * inv_b % p)
    if not walls:
        return (None, None)
    r = z % p
    if r in walls:
        raise OnWall(f"{z} reduces into the singular set mod {p}")
    residues = sorted(walls)
    i = bisect_left(residues, r)
    above = residues[i % len(residues)]  # wraps past p - 1 to the smallest
    below = residues[i - 1]  # i = 0 wraps to the largest
    return (z - (r - below) % p + 1, z + (above - r) % p - 1)


@dataclass(frozen=True)
class HilbertSeries:
    """Truncated graded dimension series: coeffs[d] is the q^(offset+d) term."""

    offset: Fraction
    coeffs: tuple

    def lowest_power(self):
        for d, c in enumerate(self.coeffs):
            if c:
                return self.offset + d
        return None

    def to_json(self) -> dict:
        return {"offset": str(self.offset), "coeffs": list(self.coeffs)}


def verma_hilbert(eta, m, max_deg: int) -> HilbertSeries:
    """Graded dimension series of the spherical standard module for (eta, m).

    Coefficient of q^(m+d) is the multiplicity of eta inside the degree-d
    part of the polynomial ring on the permutation representation, the
    principal specialization s_eta(1, q, q^2, ...) = q^{d_eta} /
    prod_{c in eta} (1 - q^{h(c)}) over the hook lengths h(c) (Stanley,
    Enumerative Combinatorics 2, Cor. 7.21.3).  The first nonzero
    coefficient sits at q^(m + d_eta).
    """
    eta = Partition(eta)
    if max_deg < 0:
        raise RangeError(f"max_deg must be nonnegative, got {max_deg}")
    coeffs = [0] * (max_deg + 1)
    if d_stat(eta) <= max_deg:
        coeffs[d_stat(eta)] = 1
    cols = transpose(eta)
    for i, row in enumerate(eta):
        for j in range(row):
            h = row - j + cols[j] - i - 1
            for d in range(h, max_deg + 1):  # times 1 / (1 - q^h)
                coeffs[d] += coeffs[d - h]
    return HilbertSeries(Fraction(m), tuple(coeffs))


def leading_term(vec: "fock.FockVector"):
    """Leading term of a vector: minimal v-exponent, ties broken by the
    canonical partition order (which refines dominance for equal sizes).

    Returns (partition, exponent, coefficient) or None for the zero vector.
    """
    e = vec.min_exponent()
    if e is None:
        return None
    best = None
    for eta, c in vec.terms():
        for exp, coef in c.monomials():
            if exp == e:
                if best is None or canonical_key(eta) < canonical_key(best[0]):
                    best = (eta, e, coef)
                break
    return best


def character_pipeline(eta, lam: ParamLambda, p: int, coprime_table: dict) -> "fock.FockVector":
    """Graded class of the simple labelled by eta from coprime input classes.

    With eta = mu + b*tau, applies the graded operator for tau to the
    supplied class of mu and normalizes the overall v-shift so the leading
    standard-basis term sits at v^0, the preferred-lift convention.

    coprime_table maps coprime partitions to their classes in the standard
    basis.  Classes with infinitely many terms over Z((v)) can only be
    supplied truncated; the pipeline is linear, so a truncated input yields
    the same truncation of the output.
    """
    eta = Partition(eta)
    if lam.value <= 0:
        raise InvalidParam(f"parameter {lam.a}/{lam.b} must be positive")
    if not fock.is_prime(p):
        raise InvalidInput(f"p must be prime, got {p}")
    table = {Partition(k): v for k, v in coprime_table.items()}
    mu, tau = _decompose(eta, lam.b)
    if not tau:
        if eta not in table:
            raise MissingTable(f"no class supplied for {tuple(eta)}")
        return table[eta]
    if mu not in table:
        raise MissingTable(f"no class supplied for the coprime part {tuple(mu)}")
    y = fock.heis_modp(tau, lam.b, p, table[mu])
    e = y.min_exponent()
    if e is None or e == 0:
        return y
    return y.shift(-e)


def preorder_leq(label1: SimpleLabel, label2: SimpleLabel, lam: ParamLambda, N: int) -> bool:
    """Highest-weight preorder on labels: L1 <= L2 iff ld(L1) >= ld(L2) - a*N*(N-1)."""
    return label1.m >= label2.m - lam.a * N * (N - 1)


def degree_window_ok(label1: SimpleLabel, label2: SimpleLabel, lam: ParamLambda, N: int) -> bool:
    """The |m - m'| <= 2a*N*(N-1) window; assumed, not verified, to pin down
    blocks for large p."""
    return abs(label1.m - label2.m) <= 2 * lam.a * N * (N - 1)
