"""Exact character theory of the symmetric groups.

Characters are computed by the Murnaghan-Nakayama border-strip recursion;
class sizes, induction products (Littlewood-Richardson), internal tensor
products and exterior powers of the permutation representation are built on
top.  Everything is integer arithmetic.

Character tables are memoized per n within the process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import factorial

from . import young
from .errors import InvalidInput, RangeError, SizeMismatch
from .partitions import Partition, canonical_key, partitions_of

# conjugacy classes of S_n are labelled by cycle types, i.e. partitions of n
ClassLabel = Partition


def class_size(mu: Partition) -> int:
    """Number of permutations with cycle type mu: n! / z_mu."""
    mu = Partition(mu)
    return factorial(mu.size) // centralizer_order(mu)


def centralizer_order(mu: Partition) -> int:
    """z_mu = prod_k k^{m_k} m_k! over part multiplicities m_k."""
    mu = Partition(mu)
    mult: dict[int, int] = {}
    for p in mu:
        mult[p] = mult.get(p, 0) + 1
    z = 1
    for k, m in mult.items():
        z *= k**m * factorial(m)
    return z


def character_value(lam: Partition, mu: Partition) -> int:
    """chi_lam evaluated on the class of cycle type mu (Murnaghan-Nakayama)."""
    lam = Partition(lam)
    mu = Partition(mu)
    if lam.size != mu.size:
        raise SizeMismatch(f"|lam|={lam.size} but the class has size {mu.size}")
    return young.mn_character(tuple(lam), tuple(mu))


@cache
def character_table(n: int) -> dict:
    """Full character table of S_n as {(lam, mu): chi_lam(mu)}."""
    if n < 0:
        raise RangeError(f"n must be nonnegative, got {n}")
    parts = list(partitions_of(n))
    return {
        (lam, mu): young.mn_character(tuple(lam), tuple(mu))
        for lam in parts
        for mu in parts
    }


@dataclass(frozen=True)
class VirtualRep:
    """Virtual representation of S_n: integer combination of irreducibles."""

    degree: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for lam, mult in self.terms.items():
            lam = Partition(lam)
            if lam.size != self.degree:
                raise SizeMismatch(
                    f"term {tuple(lam)} has size {lam.size}, expected {self.degree}"
                )
            mult = int(mult)
            if mult:
                clean[lam] = mult
        object.__setattr__(self, "terms", clean)

    @classmethod
    def irreducible(cls, lam) -> "VirtualRep":
        lam = Partition(lam)
        return cls(lam.size, {lam: 1})

    @classmethod
    def zero(cls, degree: int) -> "VirtualRep":
        return cls(degree, {})

    def is_zero(self) -> bool:
        return not self.terms

    def multiplicity(self, lam) -> int:
        return self.terms.get(Partition(lam), 0)

    def __add__(self, other: "VirtualRep") -> "VirtualRep":
        if self.degree != other.degree:
            raise SizeMismatch("cannot add virtual representations of different degree")
        acc = dict(self.terms)
        for lam, m in other.terms.items():
            acc[lam] = acc.get(lam, 0) + m
        return VirtualRep(self.degree, acc)

    def __sub__(self, other: "VirtualRep") -> "VirtualRep":
        return self + (-1) * other

    def __rmul__(self, k: int) -> "VirtualRep":
        return VirtualRep(self.degree, {lam: k * m for lam, m in self.terms.items()})

    def character(self, mu) -> int:
        """Value of the virtual character on the class of cycle type mu."""
        mu = Partition(mu)
        if mu.size != self.degree:
            raise SizeMismatch("class label size does not match the degree")
        return sum(m * character_value(lam, mu) for lam, m in self.terms.items())

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: canonical_key(kv[0]))

    def to_json(self) -> dict:
        return {
            "n": self.degree,
            "terms": [{"mu": list(lam), "mult": m} for lam, m in self.sorted_terms()],
        }

    @classmethod
    def from_json(cls, data) -> "VirtualRep":
        try:
            return cls(
                int(data["n"]),
                {Partition(t["mu"]): int(t["mult"]) for t in data["terms"]},
            )
        except (KeyError, TypeError) as exc:
            raise InvalidInput(f"malformed virtual representation JSON: {data!r}") from exc


def decompose_character(degree: int, values) -> VirtualRep:
    """Decompose a class function (given on all cycle types) into irreducibles.

    values: mapping Partition(cycle type) -> integer character value.
    Multiplicities come from the standard inner product and must be integral.
    """
    n_fact = factorial(degree)
    terms = {}
    for lam in partitions_of(degree):
        acc = 0
        for mu in partitions_of(degree):
            acc += class_size(mu) * character_value(lam, mu) * values[mu]
        mult = Fraction(acc, n_fact)
        if mult.denominator != 1:
            raise InvalidInput("class function is not a virtual character")
        if mult:
            terms[lam] = int(mult)
    return VirtualRep(degree, terms)


def induction_product(alpha: VirtualRep, beta: VirtualRep) -> VirtualRep:
    """Induction from S_a x S_b to S_{a+b}, bilinear over Littlewood-Richardson."""
    acc: dict[Partition, int] = {}
    for lam, m1 in alpha.terms.items():
        for nu, m2 in beta.terms.items():
            for sigma, c in young.schur_product_basis(tuple(lam), tuple(nu)):
                key = Partition(sigma)
                acc[key] = acc.get(key, 0) + m1 * m2 * c
    return VirtualRep(alpha.degree + beta.degree, acc)


def kronecker_product(sigma: Partition, U: VirtualRep) -> VirtualRep:
    """Internal tensor product S_sigma (x) U, decomposed into irreducibles."""
    sigma = Partition(sigma)
    if sigma.size != U.degree:
        raise SizeMismatch(
            f"|sigma|={sigma.size} does not match the degree {U.degree}"
        )
    d = sigma.size
    values = {
        mu: character_value(sigma, mu) * U.character(mu) for mu in partitions_of(d)
    }
    return decompose_character(d, values)


def _exterior_character(cycle_type, i: int) -> int:
    # elementary symmetric e_i of the permutation-matrix eigenvalues:
    # a k-cycle contributes the factor 1 - (-t)^k to sum_i e_i t^i
    poly = [0] * (sum(cycle_type) + 1)
    poly[0] = 1
    deg = 0
    for k in cycle_type:
        sign = -((-1) ** k)  # coefficient of t^k in 1 - (-t)^k
        for j in range(min(deg, len(poly) - 1 - k), -1, -1):
            if poly[j]:
                poly[j + k] += sign * poly[j]
        deg += k
    return poly[i]


def exterior_power_perm(d: int, i: int) -> VirtualRep:
    """i-th exterior power of the permutation representation of S_d."""
    if d < 1:
        raise RangeError(f"d must be positive, got {d}")
    if not 0 <= i <= d:
        raise RangeError(f"i must lie in [0, {d}], got {i}")
    values = {mu: _exterior_character(tuple(mu), i) for mu in partitions_of(d)}
    return decompose_character(d, values)
