"""Seeded inputs for the three workloads.

Everything here is a pure function of the seed: the same seed gives the same
vectors, tables and argv lists.  The package sees only what these functions
build.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from fockheis.fock import FockVector, LaurentScalar

from .checks import partitions

# ---------------------------------------------------------------------------
# raise-warm: multiplicativity checks b_{t1} b_{t2} x = sum_t c^t_{t1 t2} b_t x

RAISE_BS = (2, 3)
RAISE_PAIR_SIZES = (2, 3, 4)  # |t1| + |t2|, the size classes of one batch
RAISE_DEGREES = (6, 7, 8)
RAISE_TERMS = 10
RAISE_POOL = 10  # batches; each size-4 pair appears once per b


def ordered_pairs(total: int) -> list:
    """All (t1, t2) of nonempty partitions with |t1| + |t2| == total."""
    return [
        (t1, t2)
        for d1 in range(1, total)
        for t1 in partitions(d1)
        for t2 in partitions(total - d1)
    ]


def random_vector(rng: random.Random, degree: int, b: int, nterms: int, grades: int) -> FockVector:
    """nterms basis vectors of one degree with coefficients over `grades`
    exponents in (1/b)Z.

    The draw is stratified so that its cost hardly depends on the seed: term
    i comes from the i-th of nterms equal slices of the partitions of degree
    in canonical order, and carries 1 + (i mod grades) monomials.
    """
    shapes = list(partitions(degree))
    exps = [Fraction(g, b) for g in rng.sample(range(2 * b), grades)]
    terms = {}
    for i in range(nterms):
        eta = shapes[rng.randrange(i * len(shapes) // nterms, (i + 1) * len(shapes) // nterms)]
        picked = rng.sample(exps, 1 + i % grades)
        terms[eta] = LaurentScalar({e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in picked})
    return FockVector(terms)


def raise_pool(seed: int) -> list:
    """RAISE_POOL batches.  Batch k holds, for each b, one check per size
    class s = |t1| + |t2|: the pair is the (k mod n)-th of that class and x
    is a fresh vector of degree 6 + (k + s) mod 3 with 2 + (b + s) mod 2
    v-grades, so every batch covers all three degrees and every class meets
    each degree in turn."""
    rng = random.Random(seed)
    pairs = {s: ordered_pairs(s) for s in RAISE_PAIR_SIZES}
    pool = []
    for k in range(RAISE_POOL):
        batch = []
        for b in RAISE_BS:
            for s in RAISE_PAIR_SIZES:
                degree = RAISE_DEGREES[(k + s) % len(RAISE_DEGREES)]
                x = random_vector(rng, degree, b, RAISE_TERMS, 2 + (b + s) % 2)
                batch.append((b, x, pairs[s][k % len(pairs[s])]))
        pool.append(batch)
    return pool


# ---------------------------------------------------------------------------
# modp-cold: character_pipeline(eta, a/b, p, table), one call per size class

MODP_P = 7
MODP_CLASSES = tuple((2, d) for d in range(1, 7)) + tuple((3, d) for d in range(1, 6))
MODP_MU_MAX = 5
MODP_POOL = 96  # distinct batches, more than a run gets through


def is_coprime(mu: tuple, b: int) -> bool:
    return all(mu[i] - (mu[i + 1] if i + 1 < len(mu) else 0) < b for i in range(len(mu)))


def unitriangular_class(rng: random.Random, mu: tuple, b: int) -> FockVector:
    """s_mu plus up to three lower terms of the same size, coefficients
    +-1 or +-2 at exponents in (1/b)Z above 0."""
    lower = [nu for nu in partitions(sum(mu)) if nu < mu]
    terms = {mu: LaurentScalar.one()}
    for nu in rng.sample(lower, min(3, len(lower))):
        terms[nu] = LaurentScalar({Fraction(rng.randint(1, 2 * b), b): rng.choice((-2, -1, 1, 2))})
    return FockVector(terms)


def modp_pool(seed: int, size: int = MODP_POOL) -> list:
    """`size` batches of (eta, a, b, mu, tau, table) calls.  Batch k gives
    class i a coprime part of size (k + i) mod 6, so every batch mixes all
    sizes of mu and every class sees each size in turn."""
    rng = random.Random(seed)
    coprime = {
        b: {n: [mu for mu in partitions(n) if is_coprime(mu, b)] for n in range(MODP_MU_MAX + 1)}
        for b in (2, 3)
    }
    pool = []
    for k in range(size):
        batch = []
        for i, (b, d) in enumerate(MODP_CLASSES):
            tau = rng.choice(list(partitions(d)))
            mu = rng.choice(coprime[b][(k + i) % (MODP_MU_MAX + 1)])
            eta = _add(mu, b, tau)
            a = rng.choice([a for a in range(1, 6) if gcd(a, b) == 1])
            batch.append((eta, a, b, mu, tau, {mu: unitriangular_class(rng, mu, b)}))
        pool.append(batch)
    return pool


# ---------------------------------------------------------------------------
# cli-cold: one round of queries, each a fresh interpreter

CLI_VECTOR_TERMS = 200
CLI_VECTOR_DEGREES = (9, 10, 11, 12)


def _pick(rng, sizes, max_len, rows=None):
    """A random partition of one of `sizes` with at most max_len rows, or
    exactly `rows` rows."""
    shapes = [
        lam for n in sizes for lam in partitions(n)
        if len(lam) <= max_len and (rows is None or len(lam) == rows)
    ]
    return rng.choice(shapes)


def _csv(lam: tuple) -> str:
    return ",".join(map(str, lam)) if lam else "0"


def _primes_from(start: int):
    n = start
    while True:
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            yield n
        n += 1


def cli_vector(seed: int) -> FockVector:
    """About 200 terms spread over degrees 9-12, two v-grades in (1/2)Z."""
    rng = random.Random(seed ^ 0x5EED)
    shapes = [lam for n in CLI_VECTOR_DEGREES for lam in partitions(n)]
    exps = [Fraction(g, 2) for g in rng.sample(range(4), 2)]
    terms = {}
    for eta in rng.sample(shapes, CLI_VECTOR_TERMS):
        terms[eta] = LaurentScalar({e: rng.choice((-2, -1, 1, 2)) for e in exps})
    return FockVector(terms)


def cli_round(seed: int, vector_arg: str) -> list:
    """The cyclic query list: (argv, spec) pairs; spec keeps what the checks
    need to know about each query."""
    rng = random.Random(seed)
    out = []
    out.append((["char-table", "--n", "14"], {"kind": "char-table", "n": 14}))
    # shape classes picked for steady cost: three rows against three rows
    # (two rows for the tableau oracle), sizes 9-10
    for oracle in (False, True, False):
        mu, nu = _pick(rng, (9, 10), 3, rows=3), _pick(rng, (9, 10), 3, rows=2 if oracle else 3)
        argv = ["lr", "--mu", _csv(mu), "--nu", _csv(nu)] + (["--oracle"] if oracle else [])
        out.append((argv, {"kind": "lr", "mu": mu, "nu": nu, "oracle": oracle}))
    b = rng.choice((2, 3))
    a = rng.choice([a for a in range(1, 6) if gcd(a, b) == 1])
    mu = rng.choice([m for m in partitions(rng.randint(2, 5)) if is_coprime(m, b)])
    tau1, tau = _pick(rng, (1, 2), 2), _pick(rng, (2, 3), 3)
    eta = _add(mu, b, tau1)
    out.append(
        (["label-image", "pos", "--eta", _csv(eta), "--tau", _csv(tau), "--a", str(a), "--b", str(b)],
         {"kind": "label-image", "eta": eta, "tau": tau, "a": a, "b": b, "mu": mu, "tau1": tau1})
    )
    eta = _pick(rng, (6, 7), 7)
    out.append(
        (["verma-hilbert", "--eta", _csv(eta), "--max-deg", "16"],
         {"kind": "verma-hilbert", "eta": eta, "max_deg": 16})
    )
    for _ in range(2):
        p = next(_primes_from(rng.randint(1_000_000, 1_010_000)))
        z = rng.randint(-10**6, 10**6)
        while (2 * z + 1) % p == 0:  # z on the wall -1/2 mod p
            z += 1
        out.append(
            (["stability-interval", "--z", str(z), "--p", str(p), "--n", "2"],
             {"kind": "stability-interval", "z": z, "p": p, "n": 2})
        )
    b, a = 2, rng.choice((1, 3, 5))
    mu = rng.choice([m for m in partitions(4) if is_coprime(m, b)])
    tau = _pick(rng, (3,), 3)
    eta = _add(mu, b, tau)
    out.append(
        (["pipeline", "--eta", _csv(eta), "--a", str(a), "--b", str(b), "--p", "7", "--unit-table"],
         {"kind": "pipeline", "eta": eta, "b": b, "p": 7, "mu": mu, "tau": tau})
    )
    tau = _pick(rng, (1,), 1)
    out.append(
        (["heis-modp", "--tau", _csv(tau), "--b", "2", "--p", "7", "--x", vector_arg],
         {"kind": "heis-modp", "tau": tau, "b": 2, "p": 7})
    )
    out.append(
        (["heis", "b-op", "--i", "1", "--b", "2", "--x", vector_arg],
         {"kind": "b-op", "i": 1, "b": 2})
    )
    tau = _pick(rng, (2,), 2)
    out.append(
        (["heis", "b-tau", "--tau", _csv(tau), "--b", "2", "--x", vector_arg],
         {"kind": "b-tau", "tau": tau, "b": 2})
    )
    return out


def _add(mu: tuple, b: int, tau: tuple) -> tuple:
    n = max(len(mu), len(tau))
    return tuple((mu[j] if j < len(mu) else 0) + b * (tau[j] if j < len(tau) else 0) for j in range(n))
