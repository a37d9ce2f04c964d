"""The ring of symmetric functions with Schur and power-sum bases.

Coefficients are exact rationals throughout.  The Schur basis is the
external contract; the power-sum basis is the internal pivot for
conversions and for plethysm by p_b, which is diagonal on power sums.

Products of Schur functions are expanded by the iterated-Pieri route
(Jacobi-Trudi expansion into h- or e-products followed by strip additions);
an independent tableau-enumeration oracle lives in fockheis.oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from . import schar, young
from .errors import BasisMismatch, InvalidInput
from .partitions import Partition, canonical_key, partitions_of

SCHUR = "schur"
POWER = "power"

# coefficients are exact rationals; no floating point anywhere
CoeffScalar = Fraction


@dataclass(frozen=True)
class SymFunc:
    """Finite linear combination of Schur or power-sum basis elements."""

    basis: str
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.basis not in (SCHUR, POWER):
            raise BasisMismatch(f"unknown basis {self.basis!r}")
        clean = {}
        for lam, c in self.terms.items():
            c = Fraction(c)
            if c:
                clean[Partition(lam)] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def zero(cls, basis: str = SCHUR) -> "SymFunc":
        return cls(basis, {})

    @classmethod
    def one(cls, basis: str = SCHUR) -> "SymFunc":
        return cls(basis, {Partition(): Fraction(1)})

    @classmethod
    def schur(cls, lam) -> "SymFunc":
        return cls(SCHUR, {Partition(lam): Fraction(1)})

    @classmethod
    def power(cls, lam) -> "SymFunc":
        return cls(POWER, {Partition(lam): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, lam) -> Fraction:
        return self.terms.get(Partition(lam), Fraction(0))

    def __add__(self, other: "SymFunc") -> "SymFunc":
        if self.basis != other.basis:
            raise BasisMismatch("cannot add functions written in different bases")
        acc = dict(self.terms)
        for lam, c in other.terms.items():
            acc[lam] = acc.get(lam, Fraction(0)) + c
        return SymFunc(self.basis, acc)

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "SymFunc":
        scalar = Fraction(scalar)
        return SymFunc(self.basis, {lam: scalar * c for lam, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, SymFunc):
            if self.basis == other.basis == SCHUR:
                return schur_multiply(self, other)
            raise BasisMismatch("ring multiplication is implemented in the Schur basis")
        return self.__rmul__(other)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: canonical_key(kv[0]))

    def to_json(self) -> dict:
        return {
            "basis": self.basis,
            "terms": [
                {"mu": list(lam), "coeff": str(c)} for lam, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, data) -> "SymFunc":
        try:
            return cls(
                data["basis"],
                {Partition(t["mu"]): Fraction(t["coeff"]) for t in data["terms"]},
            )
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidInput(f"malformed symmetric function JSON: {data!r}") from exc


def schur_multiply(f: SymFunc, g: SymFunc) -> SymFunc:
    """Product in the Schur basis, Littlewood-Richardson by iterated Pieri."""
    if f.basis != SCHUR or g.basis != SCHUR:
        raise BasisMismatch("schur_multiply requires both factors in the Schur basis")
    acc: dict[Partition, Fraction] = {}
    for mu, c1 in f.terms.items():
        for nu, c2 in g.terms.items():
            c = c1 * c2
            for lam, k in young.schur_product_basis(tuple(mu), tuple(nu)):
                key = Partition(lam)
                acc[key] = acc.get(key, Fraction(0)) + c * k
    return SymFunc(SCHUR, acc)


def power_sum_to_schur(m: int) -> SymFunc:
    """p_m in the Schur basis: the alternating sum of hook Schur functions."""
    if m < 1:
        raise InvalidInput(f"power-sum index must be positive, got {m}")
    terms = {
        Partition([m - j] + [1] * j): Fraction((-1) ** j) for j in range(m)
    }
    return SymFunc(SCHUR, terms)


def schur_to_power_sums(tau) -> SymFunc:
    """Expansion s_tau = sum_mu chi_tau(mu) / z_mu * p_mu."""
    tau = Partition(tau)
    terms = {}
    for mu in partitions_of(tau.size):
        chi = schar.character_value(tau, mu)
        if chi:
            terms[mu] = Fraction(chi, schar.centralizer_order(mu))
    return SymFunc(POWER, terms)


@cache
def _power_monomial_schur_terms(rho: tuple) -> tuple:
    """Schur expansion of the power-sum monomial p_rho, as ((lam, int), ...)."""
    return young.powersum_chain_on_basis(tuple(sorted(rho, reverse=True)), ())


def to_power_sums(f: SymFunc) -> SymFunc:
    """Rewrite f in the power-sum basis."""
    if f.basis == POWER:
        return f
    acc: dict[Partition, Fraction] = {}
    for lam, c in f.terms.items():
        for mu, cc in schur_to_power_sums(lam).terms.items():
            acc[mu] = acc.get(mu, Fraction(0)) + c * cc
    return SymFunc(POWER, acc)


def to_schur(f: SymFunc) -> SymFunc:
    """Rewrite f in the Schur basis."""
    if f.basis == SCHUR:
        return f
    acc: dict[Partition, Fraction] = {}
    for rho, c in f.terms.items():
        for lam, k in _power_monomial_schur_terms(tuple(rho)):
            key = Partition(lam)
            acc[key] = acc.get(key, Fraction(0)) + c * k
    return SymFunc(SCHUR, acc)


def plethysm_pb(f: SymFunc, b: int) -> SymFunc:
    """Plethystic substitution p_m -> p_{m b}, i.e. f evaluated at p_b.

    The input is expanded in power sums, every part of every index is
    scaled by b, and the result is converted back to the Schur basis.  For
    integer input the Schur coefficients are integers again even though the
    intermediate coefficients are rational.
    """
    if b < 1:
        raise InvalidInput(f"b must be a positive integer, got {b}")
    if b == 1:
        return to_schur(f)
    p = to_power_sums(f)
    scaled = {
        Partition([b * x for x in rho]): c for rho, c in p.terms.items()
    }
    return to_schur(SymFunc(POWER, scaled))


def characteristic(U: schar.VirtualRep) -> SymFunc:
    """Frobenius characteristic: the irreducible S_lam maps to s_lam."""
    return SymFunc(
        SCHUR, {lam: Fraction(m) for lam, m in U.terms.items()}
    )
