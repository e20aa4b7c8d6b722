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
import re
import zlib
from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

SCHEMA_VERSION = 1
VERSION = "0.1.0"

_MAX_SEED = 2**64 - 1

# Longest array a signal or indicator may allocate (64 MiB of float64,
# 128 MiB of complex128); checked before allocating.
MAX_SIGNAL_LENGTH = 1 << 23

# Largest |k| in a decimal exponent 'e<k>'; Fraction forms 10^|k| exactly.
MAX_DECIMAL_EXPONENT = 10**6
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


@dataclass(frozen=True)
class IntegerSet:
    """Finite set of distinct nonzero integers, stored strictly increasing.

    Validation here enforces only "distinct and nonzero"; negative elements
    are representable so that difference sets and translated sets round-trip
    through the same type.  Operations that need positive elements check
    `is_positive` themselves.
    """

    elements: tuple[int, ...]
    name: str | None = None

    def __post_init__(self):
        prev = None
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
        """Build a set from unordered values; duplicates are an error."""
        return cls(tuple(sorted(int(v) for v in values)), name)

    @cached_property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.elements)

    @property
    def is_positive(self) -> bool:
        return not self.elements or self.elements[0] > 0

    def require_positive(self, op: str) -> None:
        if not self.is_positive:
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
    elems: list[int] = []
    for k, v in enumerate(raw):
        if not isinstance(v, int) or isinstance(v, bool):
            raise SetFormatError(f"element at offset {k} is not an integer: {v!r}", path=path)
        if v == 0:
            raise SetFormatError(f"element at offset {k} is zero", path=path)
        elems.append(v)
    if not elems:
        raise SetFormatError("empty set", path=path)
    try:
        return IntegerSet.from_iterable(elems, name=name)
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
    Path(path).write_text(set_to_json(A))


def set_to_json(A: IntegerSet) -> str:
    obj: dict = {"name": A.name, "elements": list(A.elements)}
    if A.name is None:
        del obj["name"]
    return json.dumps(obj, indent=2) + "\n"


def default_n_prime(ref_n: int) -> int:
    """Smallest power of two strictly greater than 4 * ref_n."""
    return 1 << (4 * ref_n).bit_length()


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
    if n_prime is None:
        n_prime = default_n_prime(N)
    if n_prime <= 4 * N:
        raise ValueError(f"group order {n_prime} too small for N = {N}; need > {4 * N}")
    if n_prime > MAX_SIGNAL_LENGTH:
        raise ValueError(f"group order {n_prime} exceeds the limit {MAX_SIGNAL_LENGTH}")
    out = np.zeros(n_prime, dtype=np.complex128)
    out[1 : N + 1] = arr
    return CyclicSignal(out, ref_n=N)


def indicator_vector(A: IntegerSet, N: int) -> np.ndarray:
    """Indicator of A on {1,..,N} as a float array (index i = point i+1).

    The one place a set becomes an array; checked before allocating.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if A.elements and (A.elements[0] < 1 or A.elements[-1] > N):
        raise ValueError(f"set not contained in {{1,..,{N}}}")
    if N > MAX_SIGNAL_LENGTH:
        raise ValueError(f"N = {N} exceeds the limit {MAX_SIGNAL_LENGTH}")
    out = np.zeros(N, dtype=np.float64)
    out[np.array(A.elements, dtype=np.int64) - 1] = 1.0
    return out


def parse_rational(text: str) -> Fraction:
    """Exact rational from '2/5', '0.1', '3' or '1e-9' (exponent at most 10^6)."""
    exponent = _DECIMAL_EXPONENT.search(text.replace("_", ""))
    if exponent and (len(exponent[1]) > 7 or int(exponent[1]) > MAX_DECIMAL_EXPONENT):
        raise ValueError(f"decimal exponent of {text!r} is past {MAX_DECIMAL_EXPONENT}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


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


def read_grid_json(path: str | Path, rows_key: str, cols_key: str) -> dict:
    """Parse a grid file {rows_key, cols_key, "values": [row-major]}.

    Checks the layout that grid and weight files share: a JSON object whose
    two dimensions are integers >= 1 and whose values list holds exactly
    rows * cols entries.  Each violation is a one-line ValueError naming
    the file; the entries themselves are left to the caller.
    """
    try:
        raw = json.loads(Path(path).read_text())
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
