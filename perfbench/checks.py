"""Independent checks of fockheis outputs.

Every check here recomputes a property of an output by a route that the
operation under test does not take:

* raising operators and the graded mod-p operator against the power-sum
  closed form  sum_rho chi_tau(rho)/z_rho * prod_{k in rho}(1 - v^{bpk}) *
  p_{b rho}  (the product is dropped for b_tau).  Characters come from the
  Gram-Schmidt table in ``fockheis.oracles`` and each p_m is the hook sum
  sum_j (-1)^j s_{(m-j,1^j)} multiplied on by ``symfunc.schur_multiply``,
  so neither border strips nor Kronecker products are involved;
* CLI outputs against classical identities computed here from scratch:
  character-table row orthogonality, the hook-length dimension identity for
  Littlewood-Richardson products, the principal specialization of s_lambda
  for graded multiplicities, the hook-content formula for raising operators,
  and the sorted wall residues for stability intervals.

Vectors are compared in a plain form, {parts tuple: {v-exponent: coeff}}
with Fraction exponents and coefficients, read from the JSON the package
writes.  Each checker returns None when the output passes and a short
reason when it does not.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from math import comb, factorial

from fockheis import oracles
from fockheis.symfunc import SCHUR, SymFunc, schur_multiply


# ---------------------------------------------------------------------------
# plain combinatorics, written out here so no check leans on the code it checks


def partitions(n: int, cap: int | None = None):
    """Partitions of n as tuples, largest parts first."""
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for head in range(min(n, cap), 0, -1):
        for rest in partitions(n - head, head):
            yield (head,) + rest


def conjugate(lam: tuple) -> tuple:
    return tuple(sum(1 for row in lam if row > j) for j in range(lam[0])) if lam else ()


def hooks(lam: tuple):
    """(row, column, hook length) for every cell, 0-based."""
    cols = conjugate(lam)
    for i, row in enumerate(lam):
        for j in range(row):
            yield i, j, (row - j) + (cols[j] - i) - 1


def dimension(lam: tuple) -> int:
    """f^lambda by the hook-length formula."""
    prod = 1
    for _, _, h in hooks(lam):
        prod *= h
    return factorial(sum(lam)) // prod


def schur_at_ones(lam: tuple, n: int) -> Fraction:
    """s_lambda(1^n) by the hook-content formula."""
    out = Fraction(1)
    for i, j, h in hooks(lam):
        out *= Fraction(n + j - i, h)
    return out


def z_order(rho: tuple) -> int:
    out = 1
    for k in set(rho):
        m = rho.count(k)
        out *= k**m * factorial(m)
    return out


def n_stat(lam: tuple) -> int:
    return sum(i * x for i, x in enumerate(lam))


def content(lam: tuple) -> int:
    return sum(j - i for i, row in enumerate(lam) for j in range(row))


# ---------------------------------------------------------------------------
# plain vectors


def vector_from_json(data) -> dict:
    """{parts: {exponent: coeff}} from a FockVector JSON document."""
    out = {}
    for term in data["terms"]:
        coeff = {}
        for mono in term["coeff"]["monomials"]:
            c = Fraction(mono["c"])
            if c:
                coeff[Fraction(mono["vexp"])] = c
        if coeff:
            out[tuple(term["mu"])] = coeff
    return out


def _add_into(acc: dict, lam: tuple, e: Fraction, c: Fraction) -> None:
    row = acc.setdefault(lam, {})
    row[e] = row.get(e, 0) + c


def _prune(acc: dict) -> dict:
    out = {}
    for lam, row in acc.items():
        row = {e: c for e, c in row.items() if c}
        if row:
            out[lam] = row
    return out


def min_exponent(vec: dict):
    exps = [e for row in vec.values() for e in row]
    return min(exps) if exps else None


def shift(vec: dict, e: Fraction) -> dict:
    return {lam: {x + e: c for x, c in row.items()} for lam, row in vec.items()}


def at_v_one(vec: dict) -> dict:
    out = {}
    for lam, row in vec.items():
        s = sum(row.values())
        if s:
            out[lam] = s
    return out


# ---------------------------------------------------------------------------
# the power-sum closed form


def _hook_sum(m: int) -> SymFunc:
    """p_m = sum_j (-1)^j s_{(m-j, 1^j)}."""
    return SymFunc(SCHUR, {(m - j,) + (1,) * j: (-1) ** j for j in range(m)})


class ClosedForm:
    """s_tau[p_b] and its graded mod-p twist applied through power sums.

    Power-sum monomials p_{b rho} and their products with s_eta are
    memoized on the instance, keyed by the descending chain of indices.
    """

    def __init__(self):
        self._chars: dict[int, dict] = {}
        self._powers: dict[tuple, SymFunc] = {}
        self._products: dict[tuple, dict] = {}

    def character(self, tau: tuple, rho: tuple) -> int:
        d = sum(tau)
        if d not in self._chars:
            self._chars[d] = {
                (tuple(lam), tuple(mu)): v
                for (lam, mu), v in oracles.character_table_gram_schmidt(d).items()
            }
        return self._chars[d][(tau, rho)]

    def power_sum(self, chain: tuple) -> SymFunc:
        """p_chain in the Schur basis, chain a descending tuple."""
        hit = self._powers.get(chain)
        if hit is None:
            if not chain:
                hit = SymFunc(SCHUR, {(): 1})
            else:
                hit = schur_multiply(self.power_sum(chain[:-1]), _hook_sum(chain[-1]))
            self._powers[chain] = hit
        return hit

    def power_times_schur(self, chain: tuple, eta: tuple) -> dict:
        """p_chain * s_eta as {lam: int}."""
        key = (chain, eta)
        hit = self._products.get(key)
        if hit is None:
            prod = schur_multiply(self.power_sum(chain), SymFunc(SCHUR, {eta: 1}))
            hit = {tuple(lam): int(c) for lam, c in prod.terms.items()}
            self._products[key] = hit
        return hit

    def apply(self, tau: tuple, b: int, x: dict, p: int | None = None) -> dict:
        """The closed form on a plain vector; p=None gives plain b_tau."""
        tau = tuple(tau)
        if not tau:
            return _prune({lam: dict(row) for lam, row in x.items()})
        acc: dict = {}
        for rho in partitions(sum(tau)):
            chi = self.character(tau, rho)
            if not chi:
                continue
            weight = Fraction(chi, z_order(rho))
            twist = {Fraction(0): 1}
            if p is not None:
                for k in rho:
                    nxt: dict = {}
                    for e, c in twist.items():
                        nxt[e] = nxt.get(e, 0) + c
                        nxt[e + b * p * k] = nxt.get(e + b * p * k, 0) - c
                    twist = nxt
            chain = tuple(sorted((b * k for k in rho), reverse=True))
            for eta, coeff in x.items():
                for lam, n in self.power_times_schur(chain, eta).items():
                    for e1, c1 in coeff.items():
                        for e2, c2 in twist.items():
                            if c2:
                                _add_into(acc, lam, e1 + e2, weight * n * c1 * c2)
        return _prune(acc)


# ---------------------------------------------------------------------------
# checkers on library outputs


def check_equal(got: dict, expected: dict, what: str):
    if got == expected:
        return None
    keys = set(got) | set(expected)
    diff = sorted(k for k in keys if got.get(k) != expected.get(k))
    return f"{what}: {len(diff)} coefficients differ, first at {diff[0]}"


def check_vanishes_at_one(vec: dict, what: str):
    rest = at_v_one(vec)
    if rest:
        lam = sorted(rest)[0]
        return f"{what}: v -> 1 leaves {rest[lam]} at {lam}"
    return None


def check_pipeline(out: dict, tau: tuple, b: int, p: int, x: dict, closed: ClosedForm | None):
    """A character_pipeline output: v -> 1 vanishing, leading exponent 0 and,
    with a ClosedForm, equality with the closed form shifted to exponent 0."""
    if not out:
        return "pipeline: zero output"
    reason = check_vanishes_at_one(out, "pipeline")
    if reason:
        return reason
    if min_exponent(out) != 0:
        return f"pipeline: minimum exponent {min_exponent(out)} is not 0"
    if closed is None:
        return None
    expected = closed.apply(tau, b, x, p)
    expected = shift(expected, -min_exponent(expected))
    return check_equal(out, expected, "pipeline vs closed form")


# ---------------------------------------------------------------------------
# checkers on CLI outputs


def check_char_table(payload, n: int):
    classes = [tuple(mu) for mu in payload["classes"]]
    if sorted(classes) != sorted(partitions(n)):
        return "char-table: classes are not the partitions of n"
    rows = [row["values"] for row in payload["table"]]
    if len(rows) != len(classes):
        return "char-table: wrong number of rows"
    sizes = [factorial(n) // z_order(mu) for mu in classes]
    nfact = factorial(n)
    weighted = [[s * v for s, v in zip(sizes, row)] for row in rows]
    for i, wi in enumerate(weighted):
        for j in range(i, len(rows)):
            inner = sum(a * c for a, c in zip(wi, rows[j]))
            if inner != (nfact if i == j else 0):
                return f"char-table: rows {i} and {j} have inner product {inner}"
    return None


def _contains(lam: tuple, shape: tuple) -> bool:
    return len(lam) >= len(shape) and all(lam[i] >= s for i, s in enumerate(shape))


def check_lr(payload, mu: tuple, nu: tuple, oracle: bool):
    if oracle and payload.get("oracle_checked") is not True:
        return "lr: oracle flag not echoed"
    total = sum(mu) + sum(nu)
    acc = 0
    for term in payload["terms"]:
        lam = tuple(term["mu"])
        c = Fraction(term["coeff"])
        if sum(lam) != total or c.denominator != 1 or c <= 0:
            return f"lr: bad term {lam} -> {c}"
        if not (_contains(lam, mu) and _contains(lam, nu)):
            return f"lr: {lam} does not contain both factors"
        acc += c * dimension(lam)
    expected = comb(total, sum(mu)) * dimension(mu) * dimension(nu)
    if acc != expected:
        return f"lr: sum c_lam f^lam = {acc}, expected {expected}"
    return None


def fake_degree_series(lam: tuple, max_deg: int) -> list:
    """[q^d] q^{n(lam)} / prod_{cells} (1 - q^{hook}), d <= max_deg."""
    series = [0] * (max_deg + 1)
    if n_stat(lam) <= max_deg:
        series[n_stat(lam)] = 1
    for _, _, h in hooks(lam):
        for d in range(h, max_deg + 1):
            series[d] += series[d - h]
    return series


def check_verma_hilbert(payload, eta: tuple, m: Fraction, max_deg: int):
    if Fraction(payload["offset"]) != m:
        return f"verma-hilbert: offset {payload['offset']} != {m}"
    expected = fake_degree_series(eta, max_deg)
    if payload["coeffs"] != expected:
        return f"verma-hilbert: {payload['coeffs']} != {expected}"
    return None


def wall_residues(p: int, n: int) -> list:
    return sorted({(-a) * pow(d, -1, p) % p for d in range(2, n + 1) for a in range(1, d)})


def check_stability(payload, z: int, p: int, n: int):
    walls = wall_residues(p, n)
    lo, hi = payload["lo"], payload["hi"]
    if not walls:
        return None if (lo, hi) == (None, None) else "stability-interval: no walls, yet bounded"
    r = z % p
    i = bisect.bisect_left(walls, r)
    if i < len(walls) and walls[i] == r:
        return "stability-interval: z lies on a wall"
    up = walls[i] if i < len(walls) else walls[0] + p
    down = walls[i - 1] if i > 0 else walls[-1] - p
    expected = (z - (r - down) + 1, z + (up - r) - 1)
    for end, label in ((lo - 1, "lo-1"), (hi + 1, "hi+1")):
        if end % p not in walls:
            return f"stability-interval: {label} = {end} is not a wall"
    if (lo, hi) != expected:
        return f"stability-interval: ({lo}, {hi}) != {expected}, a wall lies between"
    return None


def check_label_image(payload, tau: tuple, a: int, b: int, mu: tuple, tau1: tuple):
    """Images of the label of mu + b*tau1 under tau: (mu + b*sigma,
    c^sigma_{tau1,tau}) at their preferred lowest degrees."""
    lr = {tuple(lam): c for lam, c in oracles.schur_product_by_tableaux(tau1, tau).items()}
    got = {}
    for image in payload["images"]:
        out_eta = tuple(image["label"]["eta"])
        got[out_eta] = image["mult"]
        m = Fraction(image["label"]["m"])
        if m != n_stat(out_eta) - Fraction(a, b) * content(out_eta):
            return f"label-image: lowest degree {m} of {out_eta} is not c_eta"
    expected = {}
    for sigma, c in lr.items():
        k = max(len(mu), len(sigma))
        parts = tuple(
            (mu[i] if i < len(mu) else 0) + b * (sigma[i] if i < len(sigma) else 0)
            for i in range(k)
        )
        expected[parts] = c
    if got != expected:
        return f"label-image: {got} != {expected}"
    return None


def check_specialization(out: dict, x: dict, factor):
    """sum_lam out_lam(v) s_lam(1^N) == factor(N) * sum_eta x_eta(v) s_eta(1^N).

    Multiplication by p_r sends s(1^N) sums to N times themselves, and
    s_tau[p_b] to s_tau(1^N) times them, so this holds for the raising
    operators grade by grade in v.  N runs over the longest length L and
    L + 3, so that no term vanishes.
    """
    longest = max(len(lam) for lam in list(out) + list(x))
    for n in (longest, longest + 3):
        lhs: dict = {}
        for lam, row in out.items():
            s = schur_at_ones(lam, n)
            for e, c in row.items():
                lhs[e] = lhs.get(e, 0) + c * s
        rhs: dict = {}
        f = factor(n)
        for eta, row in x.items():
            s = schur_at_ones(eta, n) * f
            for e, c in row.items():
                rhs[e] = rhs.get(e, 0) + c * s
        lhs = {e: c for e, c in lhs.items() if c}
        rhs = {e: c for e, c in rhs.items() if c}
        if lhs != rhs:
            return f"raising operator: specialization at 1^{n} differs"
    return None
