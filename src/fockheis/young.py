"""Young-diagram kernels shared by the character and symmetric-function layers.

Everything here works on raw part tuples (weakly decreasing, no trailing
zeros) and integer coefficients, so the hot paths stay cheap.  The public
modules wrap these kernels in the Partition / SymFunc types.

Two independent multiplication routes live here on purpose:

* Schur times Schur goes through Jacobi-Trudi determinant expansion followed
  by iterated Pieri steps (horizontal or vertical strips, whichever side of
  the diagram is shorter).
* Schur times power sum goes through signed border-strip addition.

Border strips are added by two independent enumerations:

* The beta-set (abacus) layer serves the raising operators of fock.  A
  partition lam with N beads is the int bitmask with bit lam_i + N - i set
  for each row i (Macdonald, Symmetric Functions and Hall Polynomials,
  I 1 Ex. 8).  Adding a border strip of size r slides one bead from x to
  x + r; the movable beads are the set bits of m & ~(m >> r), and the
  height of the strip is the number of beads strictly between x and x + r.
  strip_chain_masks multiplies by a whole chain of power sums and shares
  the chain's prefixes; mask_shape reads the Partition back from a mask.
* The row-interval enumeration (add_border_strips, powersum_times_basis,
  powersum_chain_on_basis) parameterizes a strip by the interval of rows it
  occupies; each row interval supports at most one valid strip.  It serves
  symfunc, so the plethysm route that checks the raising operators does
  not share their strip enumeration.  Border-strip removal, for the
  Murnaghan-Nakayama characters, is row-interval only.
"""

from __future__ import annotations

from functools import cache

from .partitions import Partition


def _strip_trailing_zeros(parts: list[int]) -> tuple[int, ...]:
    while parts and parts[-1] == 0:
        parts.pop()
    return tuple(parts)


# ---------------------------------------------------------------------------
# border strips


@cache
def add_border_strips(lam: tuple, r: int) -> tuple:
    """All (mu, height) with mu/lam a border strip of size r.

    A border strip is an edge-connected skew shape containing no 2x2 block;
    its height is (number of rows) - 1.  A strip occupying rows i..i2 of mu
    forces mu_j = lam_{j-1} + 1 for i < j <= i2 and puts the remaining
    boxes in row i.
    """
    if r < 1:
        raise ValueError(f"strip size must be positive, got {r}")
    k = len(lam)
    out = []
    for i in range(1, k + 2):  # top row of the strip, 1-based
        for i2 in range(i, k + r + 1):
            top = (lam[i2 - 1] if i2 - 1 < k else 0) + r - (i2 - i)
            lam_i = lam[i - 1] if i - 1 < k else 0
            if top < lam_i + 1:
                continue
            if i >= 2 and lam[i - 2] < top:
                continue
            mu = list(lam) + [0] * max(0, i2 - k)
            mu[i - 1] = top
            for j in range(i + 1, i2 + 1):
                mu[j - 1] = (lam[j - 2] if j - 2 < k else 0) + 1
            # rows of the strip must each gain at least one box
            ok = True
            for j in range(i, i2 + 1):
                old = lam[j - 1] if j - 1 < k else 0
                if mu[j - 1] <= old:
                    ok = False
                    break
            if not ok:
                continue
            mu_t = _strip_trailing_zeros(mu)
            if any(mu_t[j] > mu_t[j - 1] for j in range(1, len(mu_t))):
                continue
            out.append((mu_t, i2 - i))
    return tuple(out)


@cache
def remove_border_strips(lam: tuple, r: int) -> tuple:
    """All (nu, height) with lam/nu a border strip of size r."""
    if r < 1:
        raise ValueError(f"strip size must be positive, got {r}")
    k = len(lam)
    out = []
    for i in range(1, k + 1):
        for i2 in range(i, k + 1):
            nu = list(lam)
            for j in range(i, i2):
                nu[j - 1] = lam[j] - 1
            nu[i2 - 1] = lam[i - 1] - r + (i2 - i)
            if nu[i2 - 1] < 0:
                continue
            if i2 < k and nu[i2 - 1] < lam[i2]:
                continue
            ok = True
            for j in range(i, i2 + 1):
                if nu[j - 1] >= lam[j - 1]:
                    ok = False  # every strip row must lose at least one box
                    break
            if not ok:
                continue
            nu_t = _strip_trailing_zeros(nu)
            if any(nu_t[j] > nu_t[j - 1] for j in range(1, len(nu_t))):
                continue
            out.append((nu_t, i2 - i))
    return tuple(out)


# ---------------------------------------------------------------------------
# Pieri strips


@cache
def add_horizontal_strips(lam: tuple, k: int) -> tuple:
    """All mu with mu/lam a horizontal strip of size k (Pieri rule for h_k)."""
    if k == 0:
        return (lam,)
    rows = len(lam) + 1
    out = []

    def walk(i: int, rest: int, prev_old: int, acc: tuple):
        # row i (0-based) may grow from lam_i up to prev_old (the row above
        # in the old shape), keeping the skew a horizontal strip.
        if i == rows:
            if rest == 0:
                out.append(_strip_trailing_zeros(list(acc)))
            return
        old = lam[i] if i < len(lam) else 0
        hi = min(prev_old, old + rest)
        for new in range(old, hi + 1):
            walk(i + 1, rest - (new - old), old, acc + (new,))

    walk(0, k, lam[0] + k if lam else k, ())
    return tuple(out)


@cache
def add_vertical_strips(lam: tuple, k: int) -> tuple:
    """All mu with mu/lam a vertical strip of size k (Pieri rule for e_k)."""
    if k == 0:
        return (lam,)
    out = []
    n = len(lam) + k

    def walk(i: int, rest: int, acc: list):
        if rest == 0:
            tail = [lam[j] for j in range(i, len(lam))]
            cand = acc + tail
            if all(cand[j] >= cand[j + 1] for j in range(len(cand) - 1)):
                out.append(_strip_trailing_zeros(cand))
            return
        if i >= n:
            return
        old = lam[i] if i < len(lam) else 0
        for add in (0, 1):
            if add <= rest and (old + add > 0 or add == 0):
                walk(i + 1, rest - add, acc + [old + add])

    walk(0, k, [])
    # filter out non-partitions produced by padding with zeros mid-way
    seen = []
    for mu in out:
        if sum(mu) == sum(lam) + k and mu not in seen:
            seen.append(mu)
    return tuple(seen)


# ---------------------------------------------------------------------------
# Jacobi-Trudi expansion and Schur products


@cache
def _jt_terms(nu: tuple, kind: str) -> tuple:
    """Signed multiset expansion of s_nu into products of h's or e's.

    Returns ((alpha, coeff), ...) where alpha is a descending tuple of
    strictly positive indices: s_nu = sum coeff * prod_k f_{alpha_k} with
    f = h (kind 'h', rows of nu) or f = e (kind 'e', columns of nu).
    """
    if kind == "e":
        # dual determinant: rows indexed by the conjugate partition
        cols = []
        if nu:
            cols = [0] * nu[0]
            for row in nu:
                for j in range(row):
                    cols[j] += 1
        shape = tuple(cols)
    else:
        shape = nu
    ell = len(shape)
    if ell == 0:
        return (((), 1),)

    # expand det(f_{shape_i - i + j}) by recursion over rows, tracking the
    # set of used columns; entries with negative index vanish, index 0 is 1.
    acc: dict[tuple, int] = {}

    def expand(i: int, used: int, sign: int, picked: tuple):
        if i == ell:
            alpha = tuple(sorted((x for x in picked if x > 0), reverse=True))
            acc[alpha] = acc.get(alpha, 0) + sign
            return
        for j in range(ell):
            if used >> j & 1:
                continue
            idx = shape[i] - (i + 1) + (j + 1)
            if idx < 0:
                continue
            # sign of the permutation built row by row: count inversions
            inv = bin(used >> (j + 1)).count("1")
            expand(i + 1, used | (1 << j), sign * (-1 if inv % 2 else 1), picked + (idx,))

    expand(0, 0, 1, ())
    return tuple((a, c) for a, c in acc.items() if c != 0)


@cache
def _strip_chain(lam: tuple, alpha: tuple, kind: str) -> tuple:
    """Expansion of s_lam * prod_k f_{alpha_k} (f = h or e), as ((mu, coeff), ...).

    alpha must be sorted descending so prefixes are shared across calls.
    """
    if not alpha:
        return ((lam, 1),)
    prev = _strip_chain(lam, alpha[:-1], kind)
    step = add_horizontal_strips if kind == "h" else add_vertical_strips
    acc: dict[tuple, int] = {}
    k = alpha[-1]
    for mu, c in prev:
        for nu in step(mu, k):
            acc[nu] = acc.get(nu, 0) + c
    return tuple(acc.items())


def _min_side(nu: tuple) -> int:
    return min(len(nu), nu[0]) if nu else 0


@cache
def schur_product_basis(mu: tuple, nu: tuple) -> tuple:
    """Schur expansion of s_mu * s_nu as ((lam, coeff), ...).

    Iterated-Pieri route: the factor with the smaller Jacobi-Trudi matrix is
    expanded into h- or e-products and multiplied onto the other factor one
    strip at a time.
    """
    if _min_side(nu) > _min_side(mu):
        mu, nu = nu, mu
    kind = "h" if (not nu or len(nu) <= nu[0]) else "e"
    acc: dict[tuple, int] = {}
    for alpha, coef in _jt_terms(nu, kind):
        for lam, c in _strip_chain(mu, alpha, kind):
            acc[lam] = acc.get(lam, 0) + coef * c
    return tuple((lam, c) for lam, c in acc.items() if c != 0)


@cache
def lr_coefficient(lam: tuple, mu: tuple, nu: tuple) -> int:
    """Littlewood-Richardson coefficient c^lam_{mu,nu}."""
    if sum(lam) != sum(mu) + sum(nu):
        return 0
    for term, c in schur_product_basis(mu, nu):
        if term == lam:
            return c
    return 0


# ---------------------------------------------------------------------------
# power-sum multiplication (border-strip route)


@cache
def powersum_times_basis(r: int, lam: tuple) -> tuple:
    """Schur expansion of p_r * s_lam as ((mu, coeff), ...), signs included."""
    acc: dict[tuple, int] = {}
    for mu, height in add_border_strips(lam, r):
        acc[mu] = acc.get(mu, 0) + (-1) ** height
    return tuple((mu, c) for mu, c in acc.items() if c != 0)


@cache
def powersum_chain_on_basis(rho: tuple, lam: tuple) -> tuple:
    """Schur expansion of p_rho * s_lam, rho a descending tuple of strip sizes."""
    if not rho:
        return ((lam, 1),)
    prev = powersum_chain_on_basis(rho[:-1], lam)
    acc: dict[tuple, int] = {}
    r = rho[-1]
    for mu, c in prev:
        for nu, cc in powersum_times_basis(r, mu):
            acc[nu] = acc.get(nu, 0) + c * cc
    return tuple((mu, c) for mu, c in acc.items() if c != 0)


# ---------------------------------------------------------------------------
# beta-set (abacus) layer: power-sum chains as bead slides


def _mask(lam: tuple, n: int) -> int:
    """The beta-set of lam with n >= len(lam) beads, as an int bitmask."""
    m = 0
    for i in range(n):
        m |= 1 << ((lam[i] if i < len(lam) else 0) + n - 1 - i)
    return m


@cache
def mask_shape(m: int) -> Partition:
    """The partition whose beta-set is the bitmask m (any number of beads).

    A bead's part is the number of gaps below it; beads with no gap below
    are the zero parts.  Returns a Partition, built once per mask.
    """
    bits = bin(m)[2:].rstrip("1")
    below = bits.count("0")
    parts = []
    for bit in bits:
        if bit == "0":
            below -= 1
        else:
            parts.append(below)
    return Partition._from_trusted(tuple(parts))


@cache
def strip_chain_masks(lam: tuple, strips: tuple) -> dict:
    """Schur expansion of p_strips * s_lam as {mask: coeff}, signs included.

    The masks are beta-sets with len(lam) + sum(strips) beads; read them with
    mask_shape.  strips should be sorted descending, so chains share their
    prefixes across calls.  Each step pads r beads at the bottom, room for
    a strip that adds rows below the diagram, then slides every movable
    bead by r.  The returned dict is shared by the cache: do not mutate it.
    """
    if not strips:
        return {_mask(lam, len(lam)): 1}
    r = strips[-1]
    if r < 1:
        raise ValueError(f"strip size must be positive, got {r}")
    pad = (1 << r) - 1
    acc: dict[int, int] = {}
    get = acc.get
    for m, c in strip_chain_masks(lam, strips[:-1]).items():
        m = (m << r) | pad
        free = m & ~(m >> r)
        while free:
            low = free & -free
            free ^= low
            top = low << r
            nu = m ^ low ^ top
            # beads strictly between x and x + r: one per row of the strip
            # below its top row
            if (m & (top - (low << 1))).bit_count() & 1:
                acc[nu] = get(nu, 0) - c
            else:
                acc[nu] = get(nu, 0) + c
    return {m: c for m, c in acc.items() if c}


# ---------------------------------------------------------------------------
# Murnaghan-Nakayama character recursion


@cache
def mn_character(lam: tuple, mu: tuple) -> int:
    """Character value chi_lam(mu) by border-strip removal on the largest part."""
    if not mu:
        return 1 if not lam else 0
    r = mu[0]
    rest = mu[1:]
    total = 0
    for nu, height in remove_border_strips(lam, r):
        total += (-1) ** height * mn_character(nu, rest)
    return total
