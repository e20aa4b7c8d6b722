"""Core domain types: validated integer sets, cyclic-group embeddings, exact
rationals, file formats, and reproducible randomness.

Conventions used throughout the package:

* Integer sets are finite, strictly increasing tuples of distinct nonzero
  integers.  Operations that additionally need positivity say so and raise
  ValueError when it fails.
* A function on {1,..,N} is a numpy array of length N whose index i holds
  the value at n = i + 1.
* A function on {1,..,N} embeds into the cyclic group Z/N'Z, with N' the
  smallest power of two exceeding 4N, by placing f(n) at group element n and
  zero elsewhere.  N' > 4N keeps additive quadruples from wrapping, so the
  normalised quantities computed downstream do not depend on which valid N'
  is used; the power of two keeps FFTs fast.
* Exact arithmetic uses fractions.Fraction.  Floats appear only in
  FFT-backed numerics with documented tolerances.
* Randomness comes from numpy's Philox counter-based generator.  Streams
  derive from a 64-bit master seed plus a small spawn key (operation tag,
  task index), so a seeded operation rerun with the same seed and parameters
  is bit-identical, and parallel tasks get independent streams by
  construction.
"""

from __future__ import annotations

import json
import operator
import re
import zlib
from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction
from functools import cache, cached_property
from itertools import islice
from math import isqrt
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

SCHEMA_VERSION = 1
VERSION = "0.1.0"

_MAX_SEED = 2**64 - 1

# Longest array a signal or indicator may allocate (64 MiB of float64,
# 128 MiB of complex128); checked before allocating.
MAX_SIGNAL_LENGTH = 1 << 23

# Most decimal digits of a numerator or denominator: Python's default limit
# on int-str conversion, so every rational read or computed can be printed.
MAX_RATIONAL_DIGITS = 4300
_RATIONAL_BOUND = 10**MAX_RATIONAL_DIGITS
_DECIMAL_EXPONENT = re.compile(r"[eE][-+]?0*(\d+)\s*$")


class SetFormatError(ValueError):
    """A set file failed to parse or validate; carries file/line context."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        loc = ""
        if path is not None:
            loc = f"{path}: "
        if line is not None:
            loc = f"{loc}line {line}: "
        super().__init__(f"{loc}{message}")
        self.path = path
        self.line = line


class GridOverflowError(ValueError):
    """A grid refinement would exceed the representable cell budget."""


class SumFreeConvention(Enum):
    """Which pairs (x, y) count toward a forbidden triple x + y = z.

    ALLOW_EQUAL forbids x + y = z for any x, y, z in the set, x = y
    permitted, so {x, 2x} already conflicts.  DISTINCT_ONLY only forbids
    triples with x != y.
    """

    ALLOW_EQUAL = "allow-equal"
    DISTINCT_ONLY = "distinct"

    @classmethod
    def parse(cls, text: str) -> "SumFreeConvention":
        for conv in cls:
            if conv.value == text:
                return conv
        raise ValueError(f"unknown convention {text!r}; use 'allow-equal' or 'distinct'")


def _as_int(x, what: str = "element") -> int:
    """x as an int when its type is an integer type other than bool."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValueError(f"non-integer {what} {x!r}")


@dataclass(frozen=True)
class IntegerSet:
    """Finite set of distinct nonzero integers, stored strictly increasing.

    Validation here enforces only "distinct and nonzero"; negative elements
    are representable so that difference sets and translated sets round-trip
    through the same type.  Operations that need positive elements call
    `require_positive`.
    """

    elements: tuple[int, ...]
    name: str | None = None

    def __post_init__(self):
        e = self.elements
        if set(map(type, e)) <= {int} and 0 not in e and all(map(operator.lt, e, islice(e, 1, None))):
            return  # plain nonzero ints, strictly increasing, checked in C-level passes
        prev = None  # the loop words the error, or accepts int subclasses
        for x in self.elements:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"non-integer element {x!r}")
            if x == 0:
                raise ValueError("zero element not allowed")
            if prev is not None and x <= prev:
                if x == prev:
                    raise ValueError(f"duplicate element {x}")
                raise ValueError("elements must be strictly increasing")
            prev = x

    @classmethod
    def from_iterable(cls, values: Iterable[int], name: str | None = None) -> "IntegerSet":
        """Build a set from unordered values; duplicates are an error.

        Integer types, numpy's among them, become ints; a bool, float or str
        is refused as the constructor refuses it, not truncated or parsed.
        """
        values = list(values)
        if not set(map(type, values)) <= {int}:
            values = list(map(_as_int, values))
        return cls(tuple(sorted(values)), name)

    @cached_property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.elements)

    def require_positive(self, op: str) -> None:
        if self.elements and self.elements[0] < 0:
            raise ValueError(f"{op} requires positive elements")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self.member_set


def load_set(path: str | Path) -> IntegerSet:
    """Load an integer set from a text or JSON file.

    Text format: one integer per line, '#' starts a comment, blank lines
    ignored.  JSON format: {"name": ..., "elements": [...]}.  Elements may
    appear in any order but must be distinct and nonzero.  An empty set is
    rejected at load time (the in-memory type allows it).
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SetFormatError(str(exc), path=str(path)) from exc

    if path.suffix == ".json" or text.lstrip()[:1] == "{":
        return _load_set_json(text, str(path))
    return _load_set_text(text, str(path))


def _load_set_json(text: str, path: str) -> IntegerSet:
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise SetFormatError(f"invalid JSON: {exc}", path=path) from exc
    if not isinstance(obj, dict) or "elements" not in obj:
        raise SetFormatError('expected an object with an "elements" array', path=path)
    raw = obj["elements"]
    if not isinstance(raw, list):
        raise SetFormatError('"elements" must be an array', path=path)
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise SetFormatError('"name" must be a string', path=path)
    if not (set(map(type, raw)) <= {int} and 0 not in raw):
        for k, v in enumerate(raw):
            if not isinstance(v, int) or isinstance(v, bool):
                raise SetFormatError(f"element at offset {k} is not an integer: {v!r}", path=path)
            if v == 0:
                raise SetFormatError(f"element at offset {k} is zero", path=path)
    if not raw:
        raise SetFormatError("empty set", path=path)
    try:
        return IntegerSet.from_iterable(raw, name=name)
    except ValueError as exc:
        raise SetFormatError(str(exc), path=path) from exc


def _load_set_text(text: str, path: str) -> IntegerSet:
    elems: list[int] = []
    seen: dict[int, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            value = int(body)
        except ValueError as exc:
            raise SetFormatError(f"not an integer: {body!r}", path=path, line=lineno) from exc
        if value == 0:
            raise SetFormatError("zero element not allowed", path=path, line=lineno)
        if value in seen:
            raise SetFormatError(
                f"duplicate element {value} (first seen on line {seen[value]})",
                path=path,
                line=lineno,
            )
        seen[value] = lineno
        elems.append(value)
    if not elems:
        raise SetFormatError("empty set", path=path)
    return IntegerSet.from_iterable(elems)


def save_set(A: IntegerSet, path: str | Path) -> None:
    """Write a set as canonical JSON; save(load(p)) is byte-stable."""
    obj: dict = {"name": A.name, "elements": list(A.elements)}
    if A.name is None:
        del obj["name"]
    with open(path, "w") as fh:
        write_json(obj, fh)


def _check_limit(work: str, count: int | str, limit: int, hint: str = "", error: type[ValueError] = ValueError) -> None:
    """Raise `error` refusing `count` units of `work` past `limit`, then "; hint", if it has one.

    This is the one wording of every limit.  A str count describes one too
    large to form, and is past the limit.
    """
    if not (isinstance(count, int) and count <= limit):
        message = f"{work} = {count} exceeds the limit {limit}"
        raise error(f"{message}; {hint}" if hint else message)


def default_n_prime(ref_n: int) -> int:
    """Smallest power of two strictly greater than 4 * ref_n."""
    return 1 << (4 * ref_n).bit_length()


def group_order(N: int, n_prime: int | None = None) -> int:
    """N' for an interval of length N: n_prime, or the default when None.

    Checked against both bounds, N' > 4N and N' <= MAX_SIGNAL_LENGTH, before
    any signal of that length is built.
    """
    if n_prime is None:
        n_prime = default_n_prime(N)
    if n_prime <= 4 * N:
        raise ValueError(f"group order {n_prime} too small for N = {N}; need > {4 * N}")
    _check_limit("group order", n_prime, MAX_SIGNAL_LENGTH)
    return n_prime


@dataclass(frozen=True)
class CyclicSignal:
    """A complex-valued function on Z/N'Z carrying a function on {1,..,N}.

    `values[x]` is the value at group element x; `ref_n` records the length
    N of the interval the signal represents.  The embedding invariant
    N' > 4N guarantees that sums a + d and b + c of interval positions never
    wrap, which is what makes interval-normalised quantities independent of
    the particular N'.
    """

    values: np.ndarray
    ref_n: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if v.ndim != 1:
            raise ValueError("signal values must be a 1-d array")
        if self.ref_n < 1:
            raise ValueError("ref_n must be >= 1")
        if len(v) <= 4 * self.ref_n:
            raise ValueError(
                f"group order {len(v)} too small for ref_n {self.ref_n}; need > {4 * self.ref_n}"
            )

    @property
    def n_prime(self) -> int:
        return len(self.values)


def embed_signal(A: IntegerSet, N: int, n_prime: int | None = None) -> CyclicSignal:
    """Embed the indicator of A <= {1,..,N} into Z/N'Z.

    With no explicit n_prime, N' is the smallest power of two above 4N:
    A = {1,2}, N = 2 gives N' = 16; N = 10 gives 64; N = 100 gives 512.
    """
    return interval_signal(indicator_vector(A, N), n_prime)


def interval_signal(values: Sequence[float] | np.ndarray, n_prime: int | None = None) -> CyclicSignal:
    """Embed a function on {1,..,N} (array index i holds f(i+1)) into Z/N'Z."""
    arr = np.asarray(values)  # cast while copied into the group, with no complex temporary
    if arr.ndim != 1 or len(arr) == 0:
        raise ValueError("values must be a nonempty 1-d array")
    N = len(arr)
    n_prime = group_order(N, n_prime)
    out = np.zeros(n_prime, dtype=np.complex128)
    out[1 : N + 1] = arr
    return CyclicSignal(out, ref_n=N)


def _check_interval(A: IntegerSet, N: int) -> None:
    """Raise ValueError unless an array on {1,..,N} may hold A.

    The one check behind every array a set becomes on {1,..,N}: N >= 1,
    containment, then MAX_SIGNAL_LENGTH, all before anything is allocated.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if A.elements and (A.elements[0] < 1 or A.elements[-1] > N):
        raise ValueError(f"set not contained in {{1,..,{N}}}")
    _check_limit("N", N, MAX_SIGNAL_LENGTH)


def indicator_vector(A: IntegerSet, N: int) -> np.ndarray:
    """Indicator of A on {1,..,N} as a float array (index i = point i+1).

    Checked by _check_interval before allocating.
    """
    _check_interval(A, N)
    out = np.zeros(N, dtype=np.float64)
    out[np.array(A.elements, dtype=np.int64) - 1] = 1.0
    return out


# Elements strictly inside (-2^62, 2^62) keep top - x and x + y strictly
# inside (-2^63, 2^63), so both are exact in int64.
_PAIR_SAFE_BOUND = 1 << 62
# Entries of every numpy block (pair sums, sweep keys, scan states).  Pair
# differences take no blocks: spectral._use_pairs forms them at once.  The
# sweep keeps at most three block arrays live and the pair kernels two, and
# three of 2^15 entries at 64 bits (768 KiB) stay inside a 2 MiB L2 cache;
# 2^14 slows the sweep of a dense set near its event limit by 10-20%.
_BLOCK = 1 << 15
# Bytes either lookup of _pair_lookup may take: B = max(_LOOKUP_BYTES, 64·|a|).
# 64 bytes an element is under 3x the 24 the pair kernel already holds (a, its
# ends and its keys), and far inside the 512 the sweep's memory test allows.
_LOOKUP_BYTES = 1 << 19
# _ON_OR_ABOVE[r, c] = c >= r: a block's entries on or past its rows' own
# diagonal.  A block of R > 1 rows is at least R wide, so R <= isqrt(_BLOCK).
_ON_OR_ABOVE = np.triu(np.ones((isqrt(_BLOCK), isqrt(_BLOCK)), dtype=bool))


def _is_prime(p: int) -> bool:
    """Whether the int p is prime, by trial division up to isqrt(p)."""
    return p > 1 and all(p % d for d in range(2, isqrt(p) + 1))


@cache
def _filter_prime(m: int) -> int:
    """The largest prime p <= m, for m >= 2: a residue filter of 2p <= 2m bytes."""
    return next(filter(_is_prime, range(m, 1, -1)))


def _pair_ends(a: np.ndarray) -> np.ndarray:
    """ends[i] = #{j : a[j] <= max(a) - a[i]}, for sorted int64 a within _PAIR_SAFE_BOUND.

    The partners y >= x of a[i] with x + y <= max(a) are a[i:ends[i]].  The
    ends fall as i grows, so the rows with a partner form a prefix.
    """
    return np.searchsorted(a, a[-1] - a, side="right")


def _pair_lookup(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """(table, row keys, column keys, exact): where _pair_sum_hits looks a's sums up.

    The sum a[i] + a[j] is read at table[row[i] + col[j]] with mode="clip",
    and this is the one place that picks the table.  Either table takes at
    most B = max(_LOOKUP_BYTES, 64·len(a)) bytes, whatever max(a) is.  When
    max(a) - min(a) + 3 <= B, the span table is exact: it marks x in a at
    x - base, for base = min(a) - 1, so a sum below min(a) reads the absent
    base and one past max(a) the absent max(a) + 1; x - base is at most the
    span + 1, so nothing overflows for a within _PAIR_SAFE_BOUND.  Otherwise
    the filter marks a's residues mod p = _filter_prime(B // 2) twice over,
    a sum's two residues read it, and its hits need confirming.
    """
    budget = max(_LOOKUP_BYTES, 64 * len(a))
    base = int(a[0]) - 1
    size = int(a[-1]) - base + 2  # base, a's span, and max(a) + 1
    if size <= budget:
        rows = a - base
        table = np.zeros(size, dtype=bool)
        table[rows] = True
        return table, rows, a, True
    p = _filter_prime(budget // 2)
    keys = a % p
    table = np.zeros(2 * p, dtype=bool)
    table[keys] = True
    table[keys + p] = True
    return table, keys, keys, False


def _pair_sum_hits(a: np.ndarray, ends: np.ndarray, *, distinct: bool, first: bool) -> int:
    """#{i <= j : a[i] + a[j] in a} (i < j when distinct), over x + y <= max(a).

    `a` is sorted, strictly increasing, int64 and within _PAIR_SAFE_BOUND;
    `ends` is _pair_ends(a).  With `first`, the count stops at the first
    block that has a hit, so it is nonzero exactly when some pair hits.

    The pairs are swept in blocks of rows i and partner columns j, about
    _BLOCK entries each, and every sum in a block is looked up at once in
    the table _pair_lookup picks from a, of at most B bytes.  A block with
    a hit first clears its entries below its rows' diagonal (j < i + off),
    which repeat pairs that another row holds.  A span table's remaining
    hits are counted as they are; each remaining hit of the residue filter
    is confirmed exactly by searchsorted.
    """
    off = int(distinct)
    lens = ends - np.arange(len(a)) - off
    rows = int(np.count_nonzero(lens > 0))
    table, row_keys, col_keys, exact = _pair_lookup(a)
    hits = 0
    r0 = 0
    while r0 < rows:
        lo, hi = r0 + off, int(ends[r0])
        r1 = min(rows, r0 + max(1, _BLOCK // (hi - lo)))
        # a block wider than _BLOCK has one row, split into column blocks
        for c0 in range(lo, hi, _BLOCK):
            c1 = min(hi, c0 + _BLOCK)
            found = np.take(table, row_keys[r0:r1, None] + col_keys[None, c0:c1], mode="clip")
            if not found.any():
                continue
            found[:, : r1 - r0] &= _ON_OR_ABOVE[: r1 - r0, : r1 - r0]
            if not exact:
                r, c = np.nonzero(found)
                sums = a[r0 + r] + a[c0 + c]
                found = a[np.minimum(np.searchsorted(a, sums), len(a) - 1)] == sums
            hits += int(np.count_nonzero(found))
            if first and hits:
                return hits
        r0 = r1
    return hits


def parse_rational(text: str) -> Fraction:
    """Exact rational from '2/5', '0.1', '3' or '1e-9', of at most MAX_RATIONAL_DIGITS digits a part.

    An exponent past that many is refused before Fraction forms 10^k, and a
    longer run of digits before int() reads it.
    """
    plain = text.replace("_", "")
    exponent = _DECIMAL_EXPONENT.search(plain)
    if exponent and (len(exponent[1]) > 7 or int(exponent[1]) > MAX_RATIONAL_DIGITS):
        raise ValueError(f"decimal exponent of {text!r} is past {MAX_RATIONAL_DIGITS}")
    _check_limit("rational digits", max(map(len, re.findall(r"\d+", plain)), default=0), MAX_RATIONAL_DIGITS)
    try:
        x = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc
    return _check_rational_digits(x)


def format_rational(x: Fraction) -> str:
    _check_rational_digits(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _check_rational_digits(x: Fraction) -> Fraction:
    """x, unless its numerator or denominator has more than MAX_RATIONAL_DIGITS digits."""
    if max(abs(x.numerator), x.denominator) >= _RATIONAL_BOUND:
        _check_limit("rational digits", f"more than {MAX_RATIONAL_DIGITS}", MAX_RATIONAL_DIGITS)
    return x


class JsonReport:
    """Base of the report dataclasses: their JSON form follows their fields.

    Each field, in declaration order, becomes one key: a nested report (or
    anything else with a `to_json_dict`) gives its dict, an IntegerSet its
    element list, a Fraction "p/q" ("p" when integral), an Enum its value,
    a complex [re, im] and a tuple a list of converted items; any other
    value is written as it is.
    """

    def to_json_dict(self) -> dict:
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}


def _json_value(x):
    if hasattr(x, "to_json_dict"):
        return x.to_json_dict()
    if isinstance(x, IntegerSet):
        return list(x.elements)
    if isinstance(x, Fraction):
        return format_rational(x)
    if isinstance(x, Enum):
        return x.value
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, tuple):
        return [_json_value(v) for v in x]
    return x


# json's C encoder; JSONEncoder only uses it when there is no indent
_C_ENCODER = json.JSONEncoder(separators=(",", ":"))
_SCALAR_TYPES = frozenset({int, float, bool, type(None)})
_JSON_CHUNK = 1 << 14  # list items per piece that write_json writes


def write_json(obj, fp) -> None:
    """Write obj to the text file fp as json.dumps(obj, separators=(",", ":")) + "\\n".

    Every document the package writes is this one line.  Containers are
    walked here, and their keys must be str (any other key raises
    TypeError); each list of numbers, bools and None goes through json's C
    encoder, in pieces of _JSON_CHUNK items, so no transient grows with the
    list.  A 2-D float64 array is written as its flat row-major list, one
    piece per row, and json's C encoder formats each distinct row (by its
    bytes, so -0.0 and 0.0 keep their own text) once: a weight's rows
    repeat.  On the 2.2 MB envelope of `weight build --eps 1/2 --cells 1024
    --steps 8` (9 distinct rows of 256), that takes 4.6 ms, against 81 ms
    for the same values as a list and 84 ms for json.dumps (best of 9,
    2-core x86-64, Python 3.11).
    """
    for piece in _json_pieces(obj):
        fp.write(piece)
    fp.write("\n")


def _json_pieces(obj):
    """The text of obj in write_json's layout, in pieces."""
    if isinstance(obj, dict):
        yield "{"
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            yield ("," if i else "") + _C_ENCODER.encode(key) + ":"
            yield from _json_pieces(value)
        yield "}"
    elif isinstance(obj, (list, tuple)):
        yield "["
        if set(map(type, obj)) <= _SCALAR_TYPES:
            for s in range(0, len(obj), _JSON_CHUNK):
                yield ("," if s else "") + _C_ENCODER.encode(obj[s : s + _JSON_CHUNK])[1:-1]
        else:
            for i, value in enumerate(obj):
                yield "," if i else ""
                yield from _json_pieces(value)
        yield "]"
    elif isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype == np.float64:
        yield "["
        texts: dict[bytes, str] = {}
        for i, row in enumerate(obj if obj.size else ()):  # rows of no columns write nothing
            key = row.tobytes()
            if key not in texts:
                texts[key] = _C_ENCODER.encode(row.tolist())[1:-1]
            yield ("," if i else "") + texts[key]
        yield "]"
    else:
        yield _C_ENCODER.encode(obj)


class _FloatMemo(dict):
    """float(text) for each number text looked up, computed once a text."""

    def __missing__(self, text: str) -> float:
        value = self[text] = float(text)
        return value


def read_grid_json(path: str | Path, rows_key: str, cols_key: str) -> dict:
    """Parse a grid file {rows_key, cols_key, "values": [row-major]}.

    Checks the layout that grid and weight files share: a JSON object whose
    two dimensions are integers >= 1 and whose values list holds exactly
    rows * cols entries.  Each violation is a one-line ValueError naming
    the file; the entries themselves are left to the caller.
    """
    try:
        # each distinct number text is parsed once: a weight's values repeat
        raw = json.loads(Path(path).read_text(), parse_float=_FloatMemo().__getitem__)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected a JSON object")
    for key in (rows_key, cols_key, "values"):
        if key not in raw:
            raise ValueError(f"{path}: missing key {key!r}")
    for key in (rows_key, cols_key):
        dim = raw[key]
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise ValueError(f"{path}: {key} must be an integer >= 1, got {dim!r}")
    values, count = raw["values"], raw[rows_key] * raw[cols_key]
    if not isinstance(values, list) or len(values) != count:
        raise ValueError(f"{path}: values must be a list of {count} entries")
    return raw


def validate_seed(seed: int) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed <= _MAX_SEED:
        raise ValueError(f"seed must be an integer in [0, 2^64): {seed!r}")
    return seed


def rng_from_seed(seed: int, *stream: int | str) -> np.random.Generator:
    """Philox generator for (seed, stream).

    The splitting rule: string components hash through crc32, then the tuple
    of integers becomes the SeedSequence spawn key over the master entropy.
    Distinct (seed, stream) pairs give independent, platform-stable streams.
    """
    validate_seed(seed)
    key = tuple(zlib.crc32(s.encode()) if isinstance(s, str) else int(s) for s in stream)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))
