"""Vincular patterns: parsing, validation, and the two encodings.

A vincular pattern is a permutation pi of size k together with a set of
*adjacencies* A, a subset of {1..k-1}: an occurrence of the pattern in a
host permutation is a subsequence order-isomorphic to pi whose a-th and
(a+1)-th positions are consecutive for every a in A.  The usual notation
marks forced-adjacent entries by underlining; in plain text we separate the
maximal runs of forced-adjacent entries ("blocks") with '|' and the
entries inside a block with ','.  So ``"3|1,2"`` is the pattern 312 in
which the 1 and the 2 must sit next to each other, and ``"3|1|2"`` is the
classical pattern 312 with no adjacency constraints.

The adjacency set and the list of block sizes carry the same information:
if c_1 < ... < c_j are the elements of {1..k} \\ A then the block sizes
are b_i = c_i - c_{i-1} (with c_0 = 0), and conversely A is {1..k} minus
the prefix sums of (b_1..b_j).  Both directions are provided and round-trip
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, permutations as _all_perms
from typing import Iterable, Iterator, Sequence

from .errors import (
    DuplicateEntry,
    EmptyBlock,
    MalformedToken,
    NonPositivePart,
    NotAPermutation,
    OutOfRange,
)

__all__ = [
    "Permutation",
    "VincularPattern",
    "parse_pattern",
    "format_pattern",
    "adjacencies_to_composition",
    "composition_to_adjacencies",
    "reduce_sequence",
    "iter_patterns",
]


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} in one-line notation.

    >>> Permutation((3, 1, 2)).size
    3
    """

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        n = len(self.values)
        if sorted(self.values) != list(range(1, n + 1)):
            raise NotAPermutation(
                f"values {self.values!r} are not a bijection of {{1..{n}}}"
            )

    @property
    def size(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, idx: int) -> int:
        return self.values[idx]

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.values)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))


def adjacencies_to_composition(adjacencies: Iterable[int], k: int) -> tuple[int, ...]:
    """Convert an adjacency set A into the block-size composition of k.

    The blocks are the maximal runs of positions glued together by A, so
    with c_1 < ... < c_j the sorted complement of A in {1..k}, the i-th
    block has size c_i - c_{i-1}.

    >>> adjacencies_to_composition({1, 2, 3, 5, 7}, 9)
    (4, 2, 2, 1)
    """
    adj = set(adjacencies)
    for a in adj:
        if not 1 <= a <= k - 1:
            raise OutOfRange(f"adjacency {a} outside {{1..{k - 1}}}")
    ends = [c for c in range(1, k + 1) if c not in adj]
    blocks = []
    prev = 0
    for c in ends:
        blocks.append(c - prev)
        prev = c
    return tuple(blocks)


def composition_to_adjacencies(blocks: Sequence[int]) -> frozenset[int]:
    """Recover the adjacency set from a block-size composition.

    Inverse of :func:`adjacencies_to_composition`: A is {1..k} minus the
    prefix sums of the composition.

    >>> sorted(composition_to_adjacencies((4, 2, 2, 1)))
    [1, 2, 3, 5, 7]
    """
    if any(b < 1 for b in blocks):
        raise NonPositivePart(f"composition {tuple(blocks)!r} has a part < 1")
    k = sum(blocks)
    ends = set()
    total = 0
    for b in blocks:
        total += b
        ends.add(total)
    return frozenset(a for a in range(1, k) if a not in ends)


@dataclass(frozen=True)
class VincularPattern:
    """A pattern permutation together with its adjacency constraints, and
    the two fields derived once from them: blocks, the block sizes, and
    block_values, each block's pattern values in position order.

    >>> parse_pattern("2,1|3|4").block_values
    ((2, 1), (3,), (4,))
    """

    order: Permutation
    adjacencies: frozenset[int]
    blocks: tuple[int, ...] = field(init=False, compare=False)
    block_values: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        blocks = adjacencies_to_composition(self.adjacencies, self.order.size)
        values = self.order.values
        block_values = tuple(values[e - b : e] for b, e in zip(blocks, accumulate(blocks)))
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "block_values", block_values)

    @property
    def size(self) -> int:
        """Pattern size k."""
        return self.order.size

    @property
    def block_count(self) -> int:
        """Number of blocks j = k - |A|."""
        return len(self.blocks)

    @property
    def last_block_size(self) -> int:
        return self.blocks[-1]

    def __str__(self) -> str:
        return format_pattern(self)


def parse_pattern(text: str) -> VincularPattern:
    """Parse the '|' / ',' pattern grammar.

    >>> p = parse_pattern("3|1,2")
    >>> p.order.values, sorted(p.adjacencies), p.blocks
    ((3, 1, 2), [2], (1, 2))
    """
    block_texts = text.split("|")
    entries: list[int] = []
    blocks: list[int] = []
    for block_text in block_texts:
        tokens = [t.strip() for t in block_text.split(",")]
        if tokens == [""]:
            raise EmptyBlock(f"empty block in {text!r}")
        for token in tokens:
            if not token.isdigit():
                raise MalformedToken(f"token {token!r} in {text!r} is not a positive integer")
            value = int(token)
            if value < 1:
                raise MalformedToken(f"token {token!r} in {text!r} is not a positive integer")
            entries.append(value)
        blocks.append(len(tokens))
    order = Permutation(tuple(entries))
    return VincularPattern(order, composition_to_adjacencies(blocks))


def format_pattern(pattern: VincularPattern) -> str:
    """Canonical text form; exact inverse of :func:`parse_pattern`.

    >>> format_pattern(parse_pattern("3 | 1 , 2"))
    '3|1,2'
    """
    return "|".join(",".join(map(str, block)) for block in pattern.block_values)


def reduce_sequence(xs: Sequence[float]) -> Permutation:
    """The unique permutation listing the entries' relative order.

    >>> reduce_sequence((5, 2, 4)).values
    (3, 1, 2)
    """
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    for a, b in zip(order, order[1:]):
        if xs[a] == xs[b]:
            raise DuplicateEntry(f"entries at positions {a} and {b} are equal")
    ranks = [0] * len(xs)
    for rank, idx in enumerate(order, start=1):
        ranks[idx] = rank
    return Permutation(tuple(ranks))


def iter_patterns(k: int) -> Iterator[VincularPattern]:
    """All vincular patterns of size exactly k: every order permutation
    combined with every adjacency subset of {1..k-1}."""
    subsets = range(1 << (k - 1)) if k >= 1 else ()
    for values in _all_perms(range(1, k + 1)):
        order = Permutation(values)
        for mask in subsets:
            adj = frozenset(a for a in range(1, k) if mask >> (a - 1) & 1)
            yield VincularPattern(order, adj)
