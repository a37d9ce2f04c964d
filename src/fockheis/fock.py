"""Fock space in the standard (Verma-class) basis and the raising operators.

A FockVector is a finite combination of partition basis vectors with
Laurent-polynomial coefficients in the grading variable v; exponents are
exact rationals.  Multiplication by v encodes a grading shift of 1/b, so
vectors model graded classes expanded in standard-module classes whose own
lowest degrees are the zero points of their v-exponents.

Vectors are stored grade-sliced, {v-exponent: {partition: int | Fraction}}.
Every raising operator below has integer coefficients and commutes with
multiplication by v, so it acts on each slice separately in plain integer
arithmetic; a Fraction appears only where the input is rational, and
LaurentScalar is the value type handed out for one coefficient.

Operators:

* b_op(i, b, .)       multiplication by the power sum p_{i b},
* b_tau(tau, b, .)    multiplication by the plethysm s_tau[p_b],
* heis_modp           the graded operator sum_i (-1)^i v^{b p i}
                      b_{tau (x) Lambda^i} coming from a Koszul resolution
                      in characteristic p,
* heis_neg            the conjectural transposed-basis variant, gated
                      behind an explicit flag.

Multiplication by s_tau[p_b] is evaluated through the power-sum pivot,
s_tau[p_b] = sum_rho chi_tau(rho)/z_rho p_{b rho}: for every rho |- |tau|
the chain of power sums p_{b rho} acts on s_eta as bead slides on the
beta-set layer of young (young.strip_chain_masks, which shares chain
prefixes across rho and across sizes), and the chains are summed with
their character weights in one pass (_chain_sum).  heis_modp runs the same
pass with one weight per grade, multiplication by sum_rho chi_tau(rho)/
z_rho prod_{k in rho} (1 - v^{b p k}) p_{b rho} (Macdonald, Symmetric
Functions and Hall Polynomials, I 7-8), which vanishes at v = 1 by
construction.  Partitions are built once per output mask
(young.mask_shape).  b_tau is checked against the iterated-Pieri product
of symfunc.plethysm_pb, which shares no strip kernel with this route;
heis_modp is checked against oracles.heis_modp_koszul, the Koszul layers
assembled from b_tau through Kronecker products and exterior powers.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import cache
from math import factorial

from . import schar, young
from .errors import ConjecturalDisabled, InvalidInput, RangeError
from .partitions import Partition, canonical_key, partitions_of, transpose


class ExponentDenominatorWarning(UserWarning):
    """A v-exponent fell outside the expected (1/(2b)) Z lattice."""


_ZERO = Fraction(0)


class LaurentScalar:
    """Sparse Laurent polynomial in v with rational exponents and coefficients."""

    __slots__ = ("_m",)

    def __init__(self, monomials=None):
        m = {}
        if monomials:
            for e, c in dict(monomials).items():
                e = Fraction(e)
                c = Fraction(c)
                if c:
                    m[e] = c
        self._m = m

    @classmethod
    def _raw(cls, m: dict) -> "LaurentScalar":
        # internal fast path: m holds nonzero Fractions keyed by Fractions
        self = object.__new__(cls)
        self._m = m
        return self

    @classmethod
    def zero(cls) -> "LaurentScalar":
        return cls()

    @classmethod
    def one(cls) -> "LaurentScalar":
        return cls({Fraction(0): Fraction(1)})

    @classmethod
    def from_rational(cls, c) -> "LaurentScalar":
        return cls({Fraction(0): Fraction(c)})

    @classmethod
    def v_power(cls, e, c=1) -> "LaurentScalar":
        return cls({Fraction(e): Fraction(c)})

    def monomials(self):
        """(exponent, coefficient) pairs sorted by exponent."""
        return sorted(self._m.items())

    def is_zero(self) -> bool:
        return not self._m

    def __bool__(self) -> bool:
        return bool(self._m)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentScalar):
            return self._m == other._m
        if isinstance(other, (int, Fraction)):
            return self == LaurentScalar.from_rational(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._m.items()))

    def __add__(self, other: "LaurentScalar") -> "LaurentScalar":
        acc = dict(self._m)
        for e, c in other._m.items():
            cur = acc.get(e)
            if cur is None:
                acc[e] = c
            else:
                cur = cur + c
                if cur:
                    acc[e] = cur
                else:
                    del acc[e]
        return LaurentScalar._raw(acc)

    def __neg__(self) -> "LaurentScalar":
        return LaurentScalar._raw({e: -c for e, c in self._m.items()})

    def __sub__(self, other: "LaurentScalar") -> "LaurentScalar":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return LaurentScalar._raw({})
            scalar = Fraction(other)
            return LaurentScalar._raw({e: c * scalar for e, c in self._m.items()})
        acc: dict[Fraction, Fraction] = {}
        for e1, c1 in self._m.items():
            for e2, c2 in other._m.items():
                e = e1 + e2
                cur = acc.get(e, _ZERO) + c1 * c2
                if cur:
                    acc[e] = cur
                elif e in acc:
                    del acc[e]
        return LaurentScalar._raw(acc)

    __rmul__ = __mul__

    def shift(self, e) -> "LaurentScalar":
        """Multiply by v^e."""
        e = Fraction(e)
        return LaurentScalar._raw({e0 + e: c for e0, c in self._m.items()})

    def at_one(self) -> Fraction:
        """Formal substitution v -> 1."""
        return sum(self._m.values(), Fraction(0))

    def min_exponent(self) -> Fraction | None:
        return min(self._m) if self._m else None

    def exponents_in_lattice(self, denominator: int) -> bool:
        """True iff every exponent is an integer multiple of 1/denominator."""
        return all((e * denominator).denominator == 1 for e in self._m)

    def __repr__(self) -> str:
        if not self._m:
            return "0"
        bits = []
        for e, c in self.monomials():
            if e == 0:
                bits.append(str(c))
            else:
                bits.append(f"{c}*v^{e}")
        return " + ".join(bits)

    def to_json(self) -> dict:
        return {
            "monomials": [
                {"vexp": str(e), "c": str(c)} for e, c in self.monomials()
            ]
        }

    @classmethod
    def from_json(cls, data) -> "LaurentScalar":
        try:
            return cls(
                {Fraction(m["vexp"]): Fraction(m["c"]) for m in data["monomials"]}
            )
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidInput(f"malformed Laurent scalar JSON: {data!r}") from exc


def _tidy(acc: dict) -> dict:
    """acc without its zero entries, integral Fractions stored as int."""
    out = {mu: c for mu, c in acc.items() if c}
    if Fraction in set(map(type, out.values())):
        for mu, c in out.items():
            if type(c) is Fraction and c.denominator == 1:
                out[mu] = c.numerator
    return out


def _merge(a: dict, b: dict) -> dict:
    """The sum of two grade slices, tidied."""
    acc = dict(a)
    get = acc.get
    for mu, c in b.items():
        acc[mu] = get(mu, 0) + c
    return _tidy(acc)


class FockVector:
    """Finite combination of partition basis vectors with Laurent-polynomial
    coefficients in v.

    Stored grade-sliced: _g maps a v-exponent (a Fraction) to its slice
    {Partition: coefficient}, the coefficient of v^e in front of each basis
    vector.  Coefficients are ints, with a Fraction only where the value is
    not integral; no slice and no slice entry is zero.  Slices are never
    mutated once stored, so vectors share them freely.  The integer kernels
    of the raising operators act on each slice in plain int arithmetic;
    LaurentScalar coefficients are built only on request (coefficient,
    terms, to_json).
    """

    __slots__ = ("_g",)

    def __init__(self, terms=None):
        t: dict[Partition, LaurentScalar] = {}
        if terms:
            for eta, c in dict(terms).items():
                if isinstance(c, (int, Fraction)):
                    c = LaurentScalar.from_rational(c)
                t[Partition(eta)] = c
        g: dict[Fraction, dict] = {}
        for eta, c in t.items():
            for e, k in c._m.items():
                g.setdefault(e, {})[eta] = k.numerator if k.denominator == 1 else k
        self._g = g

    @classmethod
    def _raw(cls, g: dict) -> "FockVector":
        # internal fast path: g holds tidy, nonempty slices keyed by Fractions
        self = object.__new__(cls)
        self._g = g
        return self

    @classmethod
    def zero(cls) -> "FockVector":
        return cls()

    @classmethod
    def vacuum(cls) -> "FockVector":
        return cls({Partition(): LaurentScalar.one()})

    @classmethod
    def basis(cls, eta, coeff=1) -> "FockVector":
        return cls({Partition(eta): coeff})

    def coefficient(self, eta) -> LaurentScalar:
        eta = Partition(eta)
        return LaurentScalar._raw(
            {e: Fraction(s[eta]) for e, s in self._g.items() if eta in s}
        )

    def terms(self):
        """(partition, coefficient) pairs in canonical partition order."""
        by_eta: dict[Partition, dict] = {}
        for e, s in self._g.items():
            for eta, c in s.items():
                by_eta.setdefault(eta, {})[e] = Fraction(c)
        return [
            (eta, LaurentScalar._raw(by_eta[eta]))
            for eta in sorted(by_eta, key=canonical_key)
        ]

    def support(self):
        return set().union(*self._g.values())

    def is_zero(self) -> bool:
        return not self._g

    def __bool__(self) -> bool:
        return bool(self._g)

    def __eq__(self, other) -> bool:
        return isinstance(other, FockVector) and self._g == other._g

    def __add__(self, other: "FockVector") -> "FockVector":
        g = dict(self._g)
        for e, s in other._g.items():
            cur = g.get(e)
            if cur is None:
                g[e] = s
            else:
                cur = _merge(cur, s)
                if cur:
                    g[e] = cur
                else:
                    del g[e]
        return FockVector._raw(g)

    def __neg__(self) -> "FockVector":
        return FockVector._raw(
            {e: {eta: -c for eta, c in s.items()} for e, s in self._g.items()}
        )

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + (-other)

    def scale(self, scalar) -> "FockVector":
        """Multiply by an int, a Fraction or a LaurentScalar."""
        if isinstance(scalar, LaurentScalar):
            acc = FockVector._raw({})
            for e, c in scalar.monomials():
                acc = acc + self.shift(e).scale(c)
            return acc
        if not scalar:
            return FockVector._raw({})
        return FockVector._raw(
            {e: _tidy({eta: c * scalar for eta, c in s.items()}) for e, s in self._g.items()}
        )

    def shift(self, e) -> "FockVector":
        """Multiply every coefficient by v^e."""
        e = Fraction(e)
        return FockVector._raw({e0 + e: s for e0, s in self._g.items()})

    def at_v_one(self) -> "FockVector":
        """Formal substitution v -> 1 in every coefficient."""
        acc: dict[Partition, int | Fraction] = {}
        for s in self._g.values():
            acc = _merge(acc, s)
        return FockVector._raw({_ZERO: acc} if acc else {})

    def map_basis(self, kernel) -> "FockVector":
        """Apply a linear map given on basis partitions by an integer kernel.

        kernel(eta) must return ((Partition, int), ...).  The kernel runs
        over each grade slice in plain integer arithmetic.
        """
        g = {}
        for e, s in self._g.items():
            acc: dict[Partition, int | Fraction] = {}
            get = acc.get
            for eta, c in s.items():
                for mu, k in kernel(eta):
                    acc[mu] = get(mu, 0) + c * k
            acc = _tidy(acc)
            if acc:
                g[e] = acc
        return FockVector._raw(g)

    def transpose_basis(self) -> "FockVector":
        """The involution sending each basis partition to its transpose."""
        return FockVector._raw(
            {e: {transpose(eta): c for eta, c in s.items()} for e, s in self._g.items()}
        )

    def min_exponent(self) -> Fraction | None:
        return min(self._g) if self._g else None

    def __repr__(self) -> str:
        if not self._g:
            return "FockVector(0)"
        bits = [f"({c!r})*[{tuple(eta)}]" for eta, c in self.terms()]
        return "FockVector(" + " + ".join(bits) + ")"

    def to_json(self) -> dict:
        return {
            "terms": [
                {"mu": list(eta), "coeff": c.to_json()} for eta, c in self.terms()
            ]
        }

    @classmethod
    def from_json(cls, data) -> "FockVector":
        try:
            return cls(
                {
                    Partition(t["mu"]): LaurentScalar.from_json(t["coeff"])
                    for t in data["terms"]
                }
            )
        except (KeyError, TypeError) as exc:
            raise InvalidInput(f"malformed Fock vector JSON: {data!r}") from exc


def _warn_exponents(x: FockVector, b: int) -> None:
    # grading conventions place all exponents in (1/(2b)) Z; outliers are
    # suspicious but not fatal, so this only warns
    for e in x._g:
        if (e * 2 * b).denominator != 1:
            warnings.warn(
                f"v-exponents outside (1/{2*b})Z detected",
                ExponentDenominatorWarning,
                stacklevel=3,
            )
            return


def b_op(i: int, b: int, x: FockVector) -> FockVector:
    """Raising operator: multiplication by the power sum p_{i b}."""
    if i < 1:
        raise InvalidInput(f"i must be a positive integer, got {i}")
    if b < 1:
        raise InvalidInput(f"b must be a positive integer, got {b}")
    r = i * b
    return x.map_basis(lambda eta: _b_op_on_basis(r, eta))


@cache
def _plethysm_power_form(tau: tuple, b: int) -> tuple:
    """d! * s_tau[p_b] in the power-sum basis: ((chain, (weight,)), ...), d = |tau|.

    chain is b*rho sorted descending; weight = chi_tau(rho) * d!/z_rho.
    """
    d = sum(tau)
    out = []
    for rho in partitions_of(d):
        chi = young.mn_character(tau, tuple(rho))
        if chi:
            chain = tuple(sorted((b * x for x in rho), reverse=True))
            out.append((chain, (chi * schar.class_size(rho),)))
    return tuple(out)


@cache
def _modp_power_form(tau: tuple, b: int) -> tuple:
    """d! * s_tau[p_b] with the chain b*rho weighted by its _plethysm_power_form
    weight times the coefficient of s^j in prod_{k in rho} (1 - s^k), one
    weight per j = 0..d: ((chain, (w_0, ..., w_d)), ...)."""
    out = []
    for chain, (weight,) in _plethysm_power_form(tau, b):
        weights = [weight] + [0] * sum(tau)
        top = 0
        for part in chain:
            k = part // b
            top += k
            for j in range(top, k - 1, -1):
                weights[j] -= weights[j - k]
        out.append((chain, tuple(weights)))
    return tuple(out)


def _chain_sum(form: tuple, eta: tuple, den: int) -> tuple:
    """Kernels (K_0, K_1, ...) with K_j(s_eta) = sum over (chain, weights) in
    form of weights[j] / den * p_chain * s_eta, each ((Partition, int), ...).

    Every coefficient is a multiple of den; the chains come from the beta-set
    layer of young, and each output mask is read back as a partition once.
    """
    layers: list[dict[int, int]] = [{} for _ in form[0][1]]
    for chain, weights in form:
        terms = young.strip_chain_masks(eta, chain).items()
        for layer, w in zip(layers, weights):
            if w:
                get = layer.get
                for m, c in terms:
                    layer[m] = get(m, 0) + w * c
    shapes: dict[int, Partition] = {}  # one mask_shape call per mask
    out = []
    for layer in layers:
        kernel = []
        for m, c in layer.items():
            if c:
                q, r = divmod(c, den)
                if r:
                    raise ArithmeticError(
                        f"non-integer coefficient {Fraction(c, den)} in plethysm multiplication"
                    )
                mu = shapes.get(m)
                if mu is None:
                    mu = shapes[m] = young.mask_shape(m)
                kernel.append((mu, q))
        out.append(tuple(kernel))
    return tuple(out)


@cache
def _b_op_on_basis(r: int, eta: tuple) -> tuple:
    """Schur expansion of p_r * s_eta as ((Partition, int), ...)."""
    return _chain_sum((((r,), (1,)),), eta, 1)[0]


@cache
def _b_tau_on_basis(tau: tuple, b: int, eta: tuple) -> tuple:
    """Schur expansion of s_tau[p_b] * s_eta as ((Partition, int), ...)."""
    return _chain_sum(_plethysm_power_form(tau, b), eta, factorial(sum(tau)))[0]


def b_tau(tau, b: int, x: FockVector) -> FockVector:
    """Raising operator: multiplication by the plethysm s_tau[p_b]."""
    tau = Partition(tau)
    if b < 1:
        raise InvalidInput(f"b must be a positive integer, got {b}")
    if not tau:
        return x
    key = tuple(tau)
    return x.map_basis(lambda eta: _b_tau_on_basis(key, b, eta))


@cache
def _heis_modp_on_basis(tau: tuple, b: int, eta: tuple) -> tuple:
    """Kernels (K_0, ..., K_d) with heis_modp(s_eta) = sum_j v^{b p j} K_j(s_eta),
    the chains weighted by _modp_power_form over the denominator d!."""
    return _chain_sum(_modp_power_form(tau, b), eta, factorial(sum(tau)))


# The first 13 primes as Miller-Rabin bases decide primality exactly below
# psi_13, the least strong pseudoprime to all of them (Sorenson and Webster,
# "Strong pseudoprimes to twelve prime bases", 2017); 12 bases stop at
# psi_12 = 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test, exact for p below 3.3 * 10^24.

    Raises RangeError from that bound on, where the fixed bases no longer
    decide primality.
    """
    if p >= _MR_BOUND:
        raise RangeError(f"primality of p is only decided below {_MR_BOUND}, got {p}")
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while not d % 2:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def heis_modp(tau, b: int, p: int, x: FockVector) -> FockVector:
    """Graded raising operator sum_i (-1)^i v^{b p i} b_{tau (x) Lambda^i C^d}.

    Here Lambda^i C^d is the i-th exterior power of the permutation
    representation of S_d, d = |tau| >= 1, and v^{b p} is the grading shift
    contributed by one Koszul step in characteristic p.  Evaluated in
    closed form as sum_j v^{b p j} K_j, see the module docstring.
    """
    tau = Partition(tau)
    d = tau.size
    if d < 1:
        raise InvalidInput("tau must be a nonempty partition")
    if b < 1:
        raise InvalidInput(f"b must be a positive integer, got {b}")
    if not is_prime(p):
        raise InvalidInput(f"p must be prime, got {p}")
    _warn_exponents(x, b)
    key = tuple(tau)
    shifts = [Fraction(b * p * j) for j in range(d + 1)]
    g: dict[Fraction, dict] = {}
    for e, s in x._g.items():
        # slices of different exponents can land on the same one
        accs = [g.setdefault(e + shift, {}) for shift in shifts]
        for eta, c in s.items():
            for acc, layer in zip(accs, _heis_modp_on_basis(key, b, eta)):
                get = acc.get
                for mu, k in layer:
                    acc[mu] = get(mu, 0) + c * k
    g = {e: _tidy(acc) for e, acc in g.items()}
    return FockVector._raw({e: s for e, s in g.items() if s})


def heis_neg(tau, b: int, p: int, x: FockVector, conjectural_flag: bool = False) -> FockVector:
    """Transposed-basis variant of heis_modp for negative parameters.

    The exact operator is only conjectural; this implements the conjugation
    omega . heis_modp(tau^t) . omega where omega transposes every basis
    partition.  Callers must opt in explicitly.
    """
    if not conjectural_flag:
        raise ConjecturalDisabled(
            "heis_neg implements a conjecture-level operator; "
            "pass conjectural_flag=True to enable it"
        )
    tau = Partition(tau)
    if tau.size < 1:
        raise InvalidInput("tau must be a nonempty partition")
    flipped = heis_modp(transpose(tau), b, p, x.transpose_basis())
    return flipped.transpose_basis()
