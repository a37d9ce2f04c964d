"""Integer partitions and the statistics used throughout the package.

A partition is stored canonically: a weakly decreasing tuple of strictly
positive integers, the empty tuple being the empty partition.  Zero padding
is always virtual, applied at operation boundaries and never stored, so two
partitions are equal iff their stored parts are equal.

The canonical order used for deterministic output is descending
lexicographic on part sequences.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import InvalidInput, NotAPartition


class Partition(tuple):
    """Weakly decreasing tuple of positive integers.

    Parts must be ints (not bools).  Trailing zeros are stripped on
    construction; anything else that is not weakly decreasing and positive
    is rejected::

      >>> Partition([4, 1])
      Partition(4, 1)
      >>> Partition([3, 0])
      Partition(3)
      >>> Partition([])
      Partition()
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        parts = tuple(parts)
        for x in parts:
            if type(x) is not int:  # bool and float parts are rejected too
                raise InvalidInput(f"partition parts must be integers, got {x!r}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        prev = None
        for x in parts:
            if x <= 0:
                raise InvalidInput(f"partition parts must be positive, got {parts}")
            if prev is not None and x > prev:
                raise InvalidInput(f"partition parts must weakly decrease, got {parts}")
            prev = x
        return super().__new__(cls, parts)

    def __getnewargs__(self):
        return (tuple(self),)

    @classmethod
    def _from_trusted(cls, parts: tuple) -> "Partition":
        # internal fast path: parts must already be canonical
        return tuple.__new__(cls, parts)

    def __repr__(self) -> str:
        return "Partition(%s)" % ", ".join(str(x) for x in self)

    @property
    def size(self) -> int:
        """Number of boxes."""
        return sum(self)

    def part(self, i: int) -> int:
        """The i-th part (1-based) with virtual zero padding."""
        return self[i - 1] if 1 <= i <= len(self) else 0

    def to_json(self) -> list:
        return list(self)

    @classmethod
    def from_json(cls, data) -> "Partition":
        if not isinstance(data, (list, tuple)):
            raise InvalidInput(f"partition JSON must be an array, got {data!r}")
        return cls(data)


EMPTY = Partition()


def canonical_key(eta):
    """Sort key realizing the canonical order (descending lex on parts).

    Use with ``sorted(..., key=canonical_key)``: the canonically first
    partition comes first.
    """
    return tuple(-x for x in eta)


def content_sum(eta: Partition) -> int:
    """Sum of j - i over the cells (i, j) of the Young diagram, 1-based.

      >>> content_sum(Partition([3]))
      3
      >>> content_sum(Partition([2, 1]))
      0
    """
    total = 0
    for i, row in enumerate(eta, start=1):
        # row cells have contents 1-i, 2-i, ..., row-i
        total += row * (row + 1) // 2 - row * i
    return total


def d_stat(eta: Partition) -> int:
    """The minimal-degree statistic sum_{i>=2} (i-1) * eta_i.

    This is the lowest polynomial degree in which the corresponding
    symmetric group irreducible occurs inside the polynomial ring on the
    permutation representation.
    """
    return sum(i * x for i, x in enumerate(eta))


def transpose(eta: Partition) -> Partition:
    """Transposed (conjugate) Young diagram.

      >>> transpose(Partition([3, 1]))
      Partition(2, 1, 1)
    """
    if not eta:
        return EMPTY
    cols = [0] * eta[0]
    for row in eta:
        for j in range(row):
            cols[j] += 1
    return Partition(cols)


def partwise_add(mu: Partition, b: int, tau: Partition) -> Partition:
    """Part-wise sum mu + b*tau with virtual zero padding.

    Raises NotAPartition when the padded sum fails to decrease weakly,
    which signals incompatible shapes.
    """
    mu = Partition(mu)
    tau = Partition(tau)
    if b < 1:
        raise InvalidInput(f"b must be a positive integer, got {b}")
    n = max(len(mu), len(tau))
    parts = [mu.part(i) + b * tau.part(i) for i in range(1, n + 1)]
    for i in range(1, len(parts)):
        if parts[i] > parts[i - 1]:
            raise NotAPartition(f"part-wise sum {parts} is not weakly decreasing")
    return Partition(parts)


def is_coprime(eta: Partition, b: int) -> bool:
    """True iff eta admits no decomposition mu + b*tau with tau nonempty.

    Equivalently every column height of the diagram repeats fewer than b
    times, i.e. all successive part differences are < b.
    """
    if b < 1:
        raise InvalidInput(f"b must be a positive integer, got {b}")
    eta = Partition(eta)
    k = len(eta)
    for h in range(k):
        nxt = eta[h + 1] if h + 1 < k else 0
        if eta[h] - nxt >= b:
            return False
    return True


def coprime_decompose(eta: Partition, b: int) -> tuple[Partition, Partition]:
    """The unique pair (mu, tau) with eta = mu + b*tau and mu coprime to b.

    Closed form: with delta_i = eta_i - eta_{i+1}, take
    tau_i = sum_{j >= i} floor(delta_j / b) and mu = eta - b*tau.

      >>> coprime_decompose(Partition([4, 1]), 3)
      (Partition(1, 1), Partition(1))
    """
    if b < 2:
        raise InvalidInput(f"b must be at least 2, got {b}")
    eta = Partition(eta)
    k = len(eta)
    tau = [0] * k
    acc = 0
    for i in range(k - 1, -1, -1):
        nxt = eta[i + 1] if i + 1 < k else 0
        acc += (eta[i] - nxt) // b
        tau[i] = acc
    mu = [eta[i] - b * tau[i] for i in range(k)]
    return Partition(mu), Partition(tau)


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n in canonical (descending lex) order."""
    if n < 0:
        raise InvalidInput(f"cannot partition a negative integer {n}")

    def gen(rest: int, cap: int, prefix: tuple) -> Iterator[Partition]:
        if rest == 0:
            yield Partition(prefix)
            return
        for head in range(min(rest, cap), 0, -1):
            yield from gen(rest - head, head, prefix + (head,))

    yield from gen(n, n if max_part is None else min(n, max_part), ())


def partitions_upto(n: int) -> Iterator[Partition]:
    """All partitions of 0, 1, ..., n, each size in canonical order."""
    for m in range(n + 1):
        yield from partitions_of(m)
