"""Indices, words over {x, y}, and the shuffle / stuffle products.

An index is a finite sequence of positive integers.  Indices correspond to
words in the letters x, y that are empty or end in y: the index
(k_1, ..., k_r) maps to the word x^(k_1 - 1) y ... x^(k_r - 1) y, which
reads k_1 first (the outermost letter).  The evaluators orient the other
way: li and zeta put k_1 on the innermost partial sum L_1, so the shuffle
that governs li_k * li_k' is rev(shuffle(rev k, rev k')).  The
shuffle product is computed on words and converted back to indices; the
stuffle product is computed directly on indices, with the extra merge
term.  Both fill the rows of suffix pairs bottom up, so neither recurses,
and both are cached by their operands, as a FormalSum is immutable.

An Index is a tuple, so comparing, sorting and hashing indices run as
tuple operations.  Formal sums have int coefficients (every product here
is an integer combination) and canonical (lexicographic) term order, so
that equality and serialization are deterministic.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union


class Index(tuple):
    """A finite sequence of positive integers; () is the empty index."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        self = super().__new__(cls, parts)
        if any(not isinstance(k, int) or k < 1 for k in self):
            raise ValueError(f"index parts must be positive integers: {tuple(self)}")
        return self

    @classmethod
    def of(cls, *parts: int) -> "Index":
        return cls(parts)

    @classmethod
    def parse(cls, text: str) -> "Index":
        """Parse the CLI syntax: comma-separated positive ints, '-' for empty."""
        text = text.strip()
        if text == "-" or text == "":
            return EMPTY
        try:
            return cls(int(t) for t in text.split(","))
        except ValueError:
            raise ValueError(f"malformed index {text!r}; expected e.g. '2,3' or '-'") from None

    @property
    def parts(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def weight(self) -> int:
        return sum(self)

    @property
    def depth(self) -> int:
        return len(self)

    def head(self) -> "Index":
        """All parts but the last."""
        return _unchecked_index(self[:-1])

    def text(self) -> str:
        """CLI syntax: '2,3', or '-' for the empty index."""
        return ",".join(map(str, self)) if self else "-"

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self)) + ")"

    def __repr__(self) -> str:
        return f"Index(parts={tuple(self)!r})"


EMPTY = Index()


def _unchecked_index(parts: Iterable[int]) -> Index:
    """An Index of parts known to be positive ints, without Index's check.

    For indices built from the parts of indices already checked (heads,
    concatenations, sums of parts); Index(...) and Index.parse check.
    """
    return tuple.__new__(Index, parts)


def concat(a: Index, b: Index) -> Index:
    """Concatenation (a_1, ..., a_r, b_1, ..., b_s)."""
    return _unchecked_index(a + b)


def star(a: Index, b: Index) -> Index:
    """Merge the ends and reverse the remainder of b.

    (a_1, ..., a_r) star (b_1, ..., b_s)
        = (a_1, ..., a_{r-1}, a_r + b_s, b_{s-1}, ..., b_1).
    """
    if not a or not b:
        raise ValueError("star requires nonempty operands")
    return _unchecked_index(a[:-1] + (a[-1] + b[-1],) + b[-2::-1])


def index_to_word(k: Index) -> str:
    """The word x^(k_1-1) y ... x^(k_r-1) y."""
    return "".join("x" * (part - 1) + "y" for part in k)


def word_to_index(w: str) -> Index:
    """Inverse of index_to_word; requires w empty or ending in y."""
    if set(w) - {"x", "y"}:
        raise ValueError(f"word not admissible: bad letters in {w!r}")
    if w and not w.endswith("y"):
        raise ValueError(f"word not admissible: {w!r} does not end in y")
    parts = []
    run = 0
    for ch in w:
        if ch == "x":
            run += 1
        else:
            parts.append(run + 1)
            run = 0
    return Index(parts)


class FormalSum:
    """A finite integer-linear combination of indices.

    Stored canonically: zero coefficients dropped, terms ordered
    lexicographically by parts.  Each coefficient is taken through
    operator.index, so a coefficient that is not an integer is a TypeError.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping[Index, int], Iterable[tuple[Index, int]]] = ()):
        merged: dict[Index, int] = {}
        for k, c in terms.items() if isinstance(terms, Mapping) else terms:
            merged[k] = merged.get(k, 0) + index(c)
        object.__setattr__(self, "_terms", dict(sorted((k, c) for k, c in merged.items() if c)))

    def __setattr__(self, name, value):
        raise AttributeError("FormalSum is immutable")

    @classmethod
    def single(cls, k: Index, c: int = 1) -> "FormalSum":
        return cls([(k, c)])

    def __iter__(self) -> Iterator[tuple[Index, int]]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(self._terms.items()))

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return FormalSum(list(self._terms.items()) + list(other._terms.items()))

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + (-1) * other

    def __mul__(self, c: int) -> "FormalSum":
        c = index(c)
        return FormalSum([(k, v * c) for k, v in self._terms.items()])

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        out = []
        for k, c in self._terms.items():
            mag = abs(c)
            body = str(k) if mag == 1 else f"{mag}*{k}"
            if not out:
                out.append(body if c > 0 else f"-{body}")
            else:
                out.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(out)

    def __repr__(self) -> str:
        return f"FormalSum({self})"


def _suffix_rows(a: Sequence, b: Sequence, letter: Callable, merge: bool) -> dict:
    """The products of a and b as {word: multiplicity}; letter(x) is a one-letter word.

    Row i holds the products of a[i:] with each suffix b[j:], built bottom
    up from the row below: a product begins with a's first letter, b's, or
    (with merge) the two merged.  Each word is hashed once, as it is built,
    and the smaller groups are added into the largest.
    """
    below = [{b[j:]: 1} for j in range(len(b) + 1)]
    for x in reversed(a):
        row = [{letter(x) + w: c for w, c in below[-1].items()}]
        for j in reversed(range(len(b))):
            heads = [(letter(x), below[j]), (letter(b[j]), row[-1])]
            if merge:
                heads.append((letter(x + b[j]), below[j + 1]))
            groups = sorted(({head + w: c for w, c in terms.items()} for head, terms in heads), key=len)
            cell = groups.pop()
            for group in groups:
                for w, c in group.items():
                    cell[w] = cell.get(w, 0) + c
            row.append(cell)
        below = row[::-1]
    return below[0]


@lru_cache(maxsize=None)
def shuffle(k: Index, kp: Index) -> FormalSum:
    """Shuffle product of two indices as a formal sum of indices."""
    words = _suffix_rows(index_to_word(k), index_to_word(kp), str, False)
    return FormalSum((word_to_index(w), c) for w, c in words.items())


@lru_cache(maxsize=None)
def stuffle(k: Index, kp: Index) -> FormalSum:
    """Stuffle (quasi-shuffle) product of two indices."""
    parts = _suffix_rows(k, kp, lambda part: (part,), True)
    return FormalSum((_unchecked_index(t), c) for t, c in parts.items())
