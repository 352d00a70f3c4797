"""Free-monoid words, the log-degree word grid, and its certificate monomial.

A word is the tuple of its letters, the integers 1..g; the empty tuple is
the identity.  In every ordering letter 1 is the largest (so the all-1 word
comes first in a decreasing enumeration).  Words serialize as strings over
'a', 'b', ... with letter 1 -> 'a' (`word_string`).

The central object is the n-by-n grid of words of degree 2*ceil(log_g(n))
whose entry (i, j) is v[i] followed by the reversal of v[j], where v is the
decreasing enumeration of all degree-d words.  Flattened row-major, the grid
supplies the n^2 candidate words whose evaluations should span the full
matrix algebra.  The companion certificate monomial assigns to every grid
position a product of matrix-entry variables tracing an index path from i
to j; the product over all positions isolates the identity permutation in
the expansion of the grid's discriminant, which is what makes the grid
certifiable in the first place.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .errors import InvalidInput, TooLarge

_ALPHA = "abcdefghijklmnopqrstuvwxyz"

#: Variable identifier (k, i, j) for entry (i, j) of the k-th generic matrix.
VarId = tuple[int, int, int]


class FrozenInstanceError(AttributeError):
    """Raised on assigning or deleting a field of a `record`."""


def record(cls):
    """Make cls a frozen record of the fields its class body annotates.

    It builds what `dataclasses.dataclass(frozen=True)` would, with the
    same behaviour: `__init__` takes the fields positionally or by keyword,
    falls back to class-level defaults, and then calls `__post_init__` if
    the class has one; `__eq__` compares records of the same class by
    their field tuples, `__hash__` hashes that tuple, `__repr__` reads
    `Name(field=value, ...)`, and assigning or deleting a field raises
    FrozenInstanceError.  Every method is a closure over the field names,
    so nothing is compiled at import.

    Why not dataclasses: every command is a fresh process, and on the
    numpy-free ones start-up is most of the job.  `import dataclasses`
    took 6.4-7.0 ms (5.5-6.0 ms of it `inspect`), and each frozen
    dataclass 0.5-0.6 ms more to exec its generated methods, against 0.01
    ms for `record`; `witness` defines 7 records, `graph` 2 and
    `certify`/`length` 8 (2-core x86-64, Python 3.11).
    The price is a slower constructor: a positional
    `graphs.LabeledMultigraph(...)` (4 fields) takes 0.99-1.03 us against
    0.67-0.72 us for the frozen dataclass.
    """
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = cls.__dict__.get("__post_init__")
    setter = object.__setattr__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = _bind(cls.__qualname__, names, defaults, args, kwargs)
        for name, value in zip(names, args):
            setter(self, name, value)
        if post_init is not None:
            post_init(self)

    def fields(self):
        return tuple([getattr(self, name) for name in names])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    return cls


def _bind(qualname: str, names: tuple, defaults: dict, args: tuple, kwargs: dict):
    """The field values of a `record` call, in field order, or TypeError."""
    if len(args) > len(names):
        raise TypeError(
            f"{qualname}() takes {len(names)} positional arguments "
            f"but {len(args)} were given"
        )
    values = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"{qualname}() got an unexpected keyword argument {name!r}")
        if name in values:
            raise TypeError(f"{qualname}() got multiple values for argument {name!r}")
        values[name] = value
    missing = [name for name in names if name not in values and name not in defaults]
    if missing:
        raise TypeError(f"{qualname}() missing required arguments: {missing}")
    return [values[name] if name in values else defaults[name] for name in names]


def word_string(letters: tuple[int, ...], g: int) -> str:
    """The word's string over 'a', 'b', ...; InvalidInput when g > 26,
    whatever letters the word uses."""
    if g > len(_ALPHA):
        raise InvalidInput(f"string form supports g <= {len(_ALPHA)}")
    return "".join(_ALPHA[letter - 1] for letter in letters)


def all_words(g: int, s: int) -> list[tuple[int, ...]]:
    """All g**s words of degree s, in strictly decreasing lexicographic order.

    Letter 1 is the largest letter, so tuples in ascending natural order are
    words in decreasing order: (1,1) > (1,2) > (2,1) > (2,2) for g = 2.
    """
    if g < 2:
        raise InvalidInput(f"alphabet size must be >= 2, got {g}")
    if s < 0:
        raise InvalidInput(f"degree must be >= 0, got {s}")
    return list(itertools.product(range(1, g + 1), repeat=s))


# Largest n that `build_word_grid` accepts; the grid holds n^2 words.  A
# `words --n N` CLI job (wall time / max RSS, 2 cores) takes 0.37 s / 43 MB
# at N = 256, 1.4 s / 79 MB at N = 400 and 6.1 s / 266 MB at N = 800.
WORDS_MAX_N = 256
# Largest half-degree d of grid words, natural or overridden (the natural d
# stays within it, since WORDS_MAX_N = 2^8).  The costliest command it
# admits, `certify --n 40 --g 26 --d 8 --random-words --trials 1`, takes
# 6.2 s / 245 MB (CLI wall time / max RSS, 2 cores): its ~3,200 distinct
# half-words share few prefixes, so the evaluator's trie holds one level
# and the finished halves, up to ~3,200 matrices.  `certify --n 2 --d
# 20000` took 27 s.
WORDS_MAX_D = 8
# Largest alphabet size g that any command accepts.  The letters are held
# and printed whether or not a word uses them: `witness --n 16` takes 2.8 s
# / 32 MB at g = 256 and 14 s / 68 MB at g = 1024, and `witness --n 2 --g
# 100000` took 29 s.  `length --n 48` costs the same at g = 256 as at g = 2.
MAX_G = 256


def check_alphabet_size(g: int) -> None:
    """Raise TooLarge when g exceeds MAX_G."""
    if g > MAX_G:
        raise TooLarge(f"alphabets are capped at g = {MAX_G}; got g = {g}")


def check_grid_size(n: int, g: int, d: int) -> None:
    """Raise TooLarge when n, g or the half-degree d exceeds its cap."""
    check_alphabet_size(g)
    if n > WORDS_MAX_N:
        raise TooLarge(f"word grids are capped at n = {WORDS_MAX_N}; got n = {n}")
    if d > WORDS_MAX_D:
        raise TooLarge(
            f"grid words are capped at half-degree d = {WORDS_MAX_D}; got d = {d}"
        )


def degree_exponent(n: int, g: int) -> int:
    """Smallest d with g**d >= n (the half-degree of the grid words)."""
    if g < 2 and n >= 2:
        raise InvalidInput(f"alphabet size must be >= 2 for n >= 2, got g={g}")
    d = 0
    power = 1
    while power < n:
        power *= g
        d += 1
    return d


def least_alphabet(n: int, d: int) -> int:
    """Smallest gbar with gbar**d >= n (the fewest letters whose degree-d
    words number at least n)."""
    if d < 1 and n > 1:
        raise InvalidInput(f"no alphabet has n={n} words of degree {d}")
    gbar = 1
    while gbar**d < n:
        gbar += 1
    return gbar


@record
class WordGrid:
    """An n-by-n array of degree-2d words; flattening is row-major."""

    n: int
    g: int
    d: int
    grid: tuple[tuple[tuple[int, ...], ...], ...]

    def flatten(self) -> list[tuple[int, ...]]:
        """Words w_1, .., w_{n^2} with w_{(i-1)n+j} = entry (i, j)."""
        return [w for row in self.grid for w in row]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "g": self.g,
            "d": self.d,
            "grid": [[word_string(w, self.g) for w in row] for row in self.grid],
        }


def build_word_grid(n: int, g: int, d: int | None = None) -> WordGrid:
    """The n-by-n grid of degree-2d words, d = ceil(log_g n) unless overridden.

    For m = g**d the full m-by-m grid has entry (i, j) equal to
    v[i] * reverse(v[j]) where v enumerates the degree-d words decreasingly;
    equivalently entry (i, j) = outer(i) * middle(i_d, j_d) * outer(j) with
    outer(i) the letter ceil(i / g**(d-1)) and (i_d, j_d) the residues of
    (i, j) in [1, g**(d-1)].  For n < g**d the leading principal n-by-n
    subgrid is returned.  An explicit d must satisfy g**d >= n.  Raises
    TooLarge, before any word exists, past the caps of `check_grid_size`.
    """
    if n < 2 or g < 2:
        raise InvalidInput(f"need n >= 2 and g >= 2, got n={n}, g={g}")
    d_min = degree_exponent(n, g)
    if d is None:
        d = d_min
    elif d < d_min:
        raise InvalidInput(f"d={d} too small: g**d must be >= n={n}")
    check_grid_size(n, g, d)
    # only the first n of the g**d degree-d words are ever referenced
    v = list(itertools.islice(itertools.product(range(1, g + 1), repeat=d), n))
    grid = tuple(tuple(v[i] + v[j][::-1] for j in range(n)) for i in range(n))
    return WordGrid(n, g, d, grid)


def entry_variable_chain(n: int, g: int, i: int, j: int) -> list[VarId]:
    """Variables of the certificate factor at grid position (i, j), outermost
    level first: the opening/closing pair at each recursion depth.

    At block width h = g**(level - 1), i - 1 = (a - 1) * h + (i' - 1) with
    i' in [1, h]: the opening variable, out of index i, is (a, i, i'), and
    the closing one, into index j, is (b, j', j).  The next level continues
    from (i', j').  In the first block (a = 1) the residue i' is i itself.
    """
    if not (1 <= i <= n and 1 <= j <= n):
        raise InvalidInput(f"position ({i}, {j}) outside [1, {n}]^2")
    chain: list[VarId] = []
    for level in range(degree_exponent(n, g) - 1, -1, -1):
        a, i_next = divmod(i - 1, g**level)
        b, j_next = divmod(j - 1, g**level)
        chain += [(a + 1, i, i_next + 1), (b + 1, j_next + 1, j)]
        i, j = i_next + 1, j_next + 1
    return chain


def certificate_monomial(n: int, g: int) -> dict[VarId, int]:
    """The product over all n^2 grid positions of the recursive entry factors.

    A commutative monomial in the matrix-entry variables x^(k)_{ij}, as the
    positive exponent of each variable (k, i, j), with 1-based positions.
    Variables with k = 1 are always diagonal (i == j), because the first
    matrix is taken diagonal in certificate bookkeeping.  Each factor
    contributes one opening and one closing variable per recursion level,
    so the factor has degree 2d and the product has total degree 2d * n^2.
    """
    if n < 2 or g < 2:
        raise InvalidInput(f"need n >= 2 and g >= 2, got n={n}, g={g}")
    exps: Counter[VarId] = Counter()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for var in entry_variable_chain(n, g, i, j):
                exps[var] += 1
    return dict(exps)
