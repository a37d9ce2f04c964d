"""Brute-force reference implementations.

Each function here recomputes something the fast modules produce, by a
route as close to the defining combinatorics as possible: tableau
enumeration for Littlewood-Richardson numbers, Gram-Schmidt on permutation
characters for character tables, explicit matrices for exterior powers,
monomial enumeration for polynomial identities, Koszul layers for the
graded mod-p operator and the character pipeline built on it.  They back
the --oracle mode of the command line tool and the dual-path checks in
the test suite.
Nothing here is optimized; keep inputs small.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import factorial

from . import fock, schar
from .errors import InvalidInput
from .partitions import Partition, canonical_key, coprime_decompose, partitions_of


# ---------------------------------------------------------------------------
# Littlewood-Richardson by direct tableau enumeration


def _skew_fillings(lam: tuple, mu: tuple, content: tuple):
    """All fillings of lam/mu, weakly increasing in rows, strictly in columns,
    with content[k] entries equal to k+1.  Yields row-major entry lists."""
    rows = len(lam)
    mu = mu + (0,) * (rows - len(mu))
    cells = [(r, c) for r in range(rows) for c in range(mu[r], lam[r])]
    remaining = list(content)

    def entry_at(filled, r, c):
        idx = cells.index((r, c))
        return filled[idx] if idx < len(filled) else None

    def walk(filled):
        if len(filled) == len(cells):
            yield list(filled)
            return
        r, c = cells[len(filled)]
        for k in range(1, len(remaining) + 1):
            if remaining[k - 1] == 0:
                continue
            left = entry_at(filled, r, c - 1) if c - 1 >= mu[r] else None
            if left is not None and k < left:
                continue
            above = None
            if r > 0 and mu[r - 1] <= c < lam[r - 1]:
                above = entry_at(filled, r - 1, c)
            if above is not None and k <= above:
                continue
            remaining[k - 1] -= 1
            filled.append(k)
            yield from walk(filled)
            filled.pop()
            remaining[k - 1] += 1

    yield from walk([])


def _is_lattice_reverse_word(lam: tuple, mu: tuple, filling: list) -> bool:
    rows = len(lam)
    mu = mu + (0,) * (rows - len(mu))
    word = []
    idx = 0
    for r in range(rows):
        width = lam[r] - mu[r]
        row = filling[idx : idx + width]
        idx += width
        word.extend(reversed(row))
    counts: dict[int, int] = {}
    for k in word:
        counts[k] = counts.get(k, 0) + 1
        if k > 1 and counts[k] > counts.get(k - 1, 0):
            return False
    return True


def lr_tableau_coefficient(lam, mu, nu) -> int:
    """c^lam_{mu nu} = number of lattice skew semistandard fillings of
    lam/mu with content nu, straight from the definition."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if lam.size != mu.size + nu.size:
        return 0
    k = max(len(lam), len(mu))
    lam_t, mu_t = tuple(lam) + (0,) * (k - len(lam)), tuple(mu) + (0,) * (k - len(mu))
    if any(lam_t[i] < mu_t[i] for i in range(k)):
        return 0
    count = 0
    for filling in _skew_fillings(tuple(lam), tuple(mu), tuple(nu)):
        if _is_lattice_reverse_word(tuple(lam), tuple(mu), filling):
            count += 1
    return count


def schur_product_by_tableaux(mu, nu) -> dict:
    """Full expansion of s_mu * s_nu via tableau counts, {Partition: int}."""
    mu, nu = Partition(mu), Partition(nu)
    out = {}
    for lam in partitions_of(mu.size + nu.size):
        c = lr_tableau_coefficient(lam, mu, nu)
        if c:
            out[lam] = c
    return out


# ---------------------------------------------------------------------------
# character table via permutation characters and Gram-Schmidt


def young_permutation_character(lam, mu) -> int:
    """Character of the permutation module on cosets of the Young subgroup
    for lam, evaluated on cycle type mu: the number of ways to distribute
    the cycles of mu over the rows of lam filling each row exactly."""
    lam, mu = Partition(lam), Partition(mu)
    if lam.size != mu.size:
        raise InvalidInput("sizes must agree")
    rows = tuple(lam)
    cycles = tuple(mu)

    def walk(i: int, capacities: tuple) -> int:
        if i == len(cycles):
            return 1
        total = 0
        for r in range(len(capacities)):
            if capacities[r] >= cycles[i]:
                nxt = capacities[:r] + (capacities[r] - cycles[i],) + capacities[r + 1 :]
                total += walk(i + 1, nxt)
        return total

    return walk(0, rows)


def character_table_gram_schmidt(n: int) -> dict:
    """Character table of S_n via Kostka-unitriangular Gram-Schmidt on the
    Young permutation characters, {(lam, mu): int}.

    Partitions are processed in canonical (descending lexicographic) order,
    which refines dominance, so each permutation character is the matching
    irreducible plus already-computed ones.
    """
    parts = list(partitions_of(n))  # canonical order refines dominance
    n_fact = factorial(n)
    sizes = {mu: schar.class_size(mu) for mu in parts}
    table: dict[tuple, int] = {}
    known: list[Partition] = []
    for lam in parts:
        phi = {mu: young_permutation_character(lam, mu) for mu in parts}
        for nu in known:
            inner = sum(sizes[mu] * phi[mu] * table[(nu, mu)] for mu in parts)
            mult = Fraction(inner, n_fact)
            if mult:
                for mu in parts:
                    phi[mu] -= int(mult) * table[(nu, mu)]
        for mu in parts:
            table[(lam, mu)] = phi[mu]
        known.append(lam)
    return table


# ---------------------------------------------------------------------------
# exterior powers from explicit permutation matrices


def _permutation_with_cycle_type(mu: tuple) -> list[int]:
    perm = []
    start = 0
    for k in mu:
        perm.extend(list(range(start + 1, start + k)) + [start])
        start += k
    return perm


def _det(matrix: list[list[int]]) -> int:
    n = len(matrix)
    if n == 0:
        return 1
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):  # count cycle parity
            if not seen[i]:
                j, length = i, 0
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    length += 1
                if length % 2 == 0:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= matrix[i][perm[i]]
            if prod == 0:
                break
        total += sign * prod
    return total


def exterior_power_matrix_character(d: int, i: int, mu) -> int:
    """Trace of Lambda^i of the explicit permutation matrix of cycle type mu:
    the sum of its principal i x i minors."""
    mu = Partition(mu)
    perm = _permutation_with_cycle_type(tuple(mu))
    mat = [[1 if perm[c] == r else 0 for c in range(d)] for r in range(d)]
    total = 0
    for rows in combinations(range(d), i):
        sub = [[mat[r][c] for c in rows] for r in rows]
        total += _det(sub)
    return total


def exterior_power_matrix_oracle(d: int, i: int) -> "schar.VirtualRep":
    """Decomposition of Lambda^i of the permutation representation computed
    from explicit matrices."""
    values = {
        mu: exterior_power_matrix_character(d, i, mu) for mu in partitions_of(d)
    }
    return schar.decompose_character(d, values)


def exterior_power_hook_form(d: int, i: int) -> "schar.VirtualRep":
    """Closed-form hook decomposition of Lambda^i of the permutation
    representation."""
    if i == 0:
        return schar.VirtualRep.irreducible([d])
    if i == d:
        return schar.VirtualRep.irreducible([1] * d)
    return schar.VirtualRep(
        d,
        {
            Partition([d - i] + [1] * i): 1,
            Partition([d - i + 1] + [1] * (i - 1)): 1,
        },
    )


# ---------------------------------------------------------------------------
# the graded mod-p operator layer by layer


def b_rep(U: "schar.VirtualRep", b: int):
    """Operator sum_sigma mult_U(sigma) * b_tau(sigma, b, .)."""
    if b < 1:
        raise InvalidInput(f"b must be a positive integer, got {b}")
    terms = list(U.terms.items())

    def apply(x: "fock.FockVector") -> "fock.FockVector":
        acc = fock.FockVector.zero()
        for sigma, mult in terms:
            acc = acc + fock.b_tau(sigma, b, x).scale(mult)
        return acc

    return apply


@cache
def _koszul_layer(tau: tuple, i: int) -> "schar.VirtualRep":
    """Decomposition of tau (x) Lambda^i of the permutation representation."""
    d = sum(tau)
    return schar.kronecker_product(Partition(tau), schar.exterior_power_perm(d, i))


def heis_modp_koszul(tau, b: int, p: int, x: "fock.FockVector") -> "fock.FockVector":
    """fock.heis_modp as sum_i (-1)^i v^{b p i} b_rep(tau (x) Lambda^i)(x)."""
    tau = Partition(tau)
    acc = fock.FockVector.zero()
    for i in range(tau.size + 1):
        U = _koszul_layer(tuple(tau), i)
        piece = b_rep(U, b)(x).shift(Fraction(b * p * i))
        acc = acc + piece if i % 2 == 0 else acc - piece
    return acc


def character_pipeline_koszul(eta, b: int, p: int, coprime_table: dict) -> "fock.FockVector":
    """cherednik.character_pipeline with heis_modp_koszul in place of
    fock.heis_modp, for a parameter with denominator b and a table the
    pipeline has accepted."""
    eta = Partition(eta)
    table = {Partition(k): v for k, v in coprime_table.items()}
    mu, tau = (Partition(), eta) if b == 1 else coprime_decompose(eta, b)
    if not tau:
        return table[eta]
    y = heis_modp_koszul(tau, b, p, table[mu])
    e = y.min_exponent()
    return y if e is None or e == 0 else y.shift(-e)


# ---------------------------------------------------------------------------
# polynomial-ring decompositions by monomial enumeration


def _monomials(nvars: int, degree: int):
    if nvars == 0:
        if degree == 0:
            yield ()
        return

    def walk(i: int, rest: int, acc: tuple):
        if i == nvars - 1:
            yield acc + (rest,)
            return
        for e in range(rest + 1):
            yield from walk(i + 1, rest - e, acc + (e,))

    yield from walk(0, degree, ())


def polynomial_degree_character(n: int, degree: int) -> dict:
    """Character of S_n acting on degree-d monomials in n variables:
    the number of monomials fixed by an explicit permutation per class."""
    values = {}
    for mu in partitions_of(n):
        perm = _permutation_with_cycle_type(tuple(mu))
        fixed = 0
        for mono in _monomials(n, degree):
            if all(mono[perm[i]] == mono[i] for i in range(n)):
                fixed += 1
        values[mu] = fixed
    return values


def polynomial_multiplicities(n: int, degree: int) -> dict:
    """Multiplicity of every irreducible in the degree-d part of the
    polynomial ring, via the Gram-Schmidt character table (independent of
    the Murnaghan-Nakayama route)."""
    values = polynomial_degree_character(n, degree)
    table = character_table_gram_schmidt(n)
    n_fact = factorial(n)
    out = {}
    for lam in partitions_of(n):
        acc = sum(
            schar.class_size(mu) * table[(lam, mu)] * values[mu]
            for mu in partitions_of(n)
        )
        mult = Fraction(acc, n_fact)
        if mult.denominator != 1:
            raise ArithmeticError("non-integral multiplicity in oracle")
        if mult:
            out[lam] = int(mult)
    return out


# ---------------------------------------------------------------------------
# symmetric polynomials in finitely many variables


def _ssyt(shape: tuple, nvars: int):
    """Semistandard tableaux of the given shape with entries in 1..nvars,
    yielded as row tuples."""
    rows = len(shape)

    def walk(r: int, acc: list):
        if r == rows:
            yield list(acc)
            return
        width = shape[r]

        def fill(c: int, row: list):
            if c == width:
                acc.append(tuple(row))
                yield from walk(r + 1, acc)
                acc.pop()
                return
            lo = row[c - 1] if c > 0 else 1
            if r > 0:
                lo = max(lo, acc[r - 1][c] + 1)
            for val in range(lo, nvars + 1):
                yield from fill(c + 1, row + [val])

        yield from fill(0, [])

    yield from walk(0, [])


def schur_polynomial(lam, nvars: int) -> dict:
    """Monomial expansion of the Schur polynomial in nvars variables,
    {exponent tuple: int}, by semistandard tableau enumeration."""
    lam = Partition(lam)
    if lam and len(lam) > nvars:
        return {}
    out: dict[tuple, int] = {}
    for tab in _ssyt(tuple(lam), nvars):
        expo = [0] * nvars
        for row in tab:
            for v in row:
                expo[v - 1] += 1
        key = tuple(expo)
        out[key] = out.get(key, 0) + 1
    return out


def poly_multiply(f: dict, g: dict) -> dict:
    out: dict[tuple, int] = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def poly_substitute_power(f: dict, b: int) -> dict:
    """x_i -> x_i^b on a monomial dict: the plethysm by p_b in finitely
    many variables."""
    return {tuple(b * e for e in expo): c for expo, c in f.items()}


def schur_expansion_in_vars(f: dict, nvars: int, degree: int) -> dict:
    """Expand a symmetric polynomial (monomial dict, homogeneous of the
    given degree) in Schur polynomials by leading-monomial elimination."""
    rest = dict(f)
    out: dict[Partition, int] = {}
    parts = sorted(
        (lam for lam in partitions_of(degree) if len(lam) <= nvars),
        key=canonical_key,
    )
    for lam in parts:
        expo = tuple(lam) + (0,) * (nvars - len(lam))
        c = rest.get(expo, 0)
        if c:
            out[lam] = c
            for e, cc in schur_polynomial(lam, nvars).items():
                rest[e] = rest.get(e, 0) - c * cc
    if any(rest.values()):
        raise ArithmeticError("input was not symmetric of the stated degree")
    return out
