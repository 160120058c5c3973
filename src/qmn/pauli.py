"""Exact symbolic algebra of multi-qubit Pauli operators.

A :class:`PauliTerm` stores its word in symplectic form (Aaronson and
Gottesman, quant-ph/0406196): two int bitmasks ``x`` and ``z`` over qubit
ids, the word being i^|x&z| X^x Z^z, so a qubit with both bits set carries
a Y.  Two words commute iff |(x1&z2) ^ (z1&x2)| is even.  A product XORs
the masks and multiplies the coefficient by
i^(|x1&z1| + |x2&z2| + 2|z1&x2| - |x3&z3|), an exact power of i, so
commutators of integer-coefficient terms cancel exactly, with no
floating-point phase drift.  Masks must be non-negative ints, checked
when a term is made (a negative mask has no end of set bits), and qubit
ids ints with 0 <= id < 2**20 (``QUBIT_ID_LIMIT``), checked where letters
enter.

A :class:`PauliSum` is a combined list of terms: each word's coefficients
are added in input order starting from 0j and exact zeros are dropped; a
word met once keeps its input term unless 0j + c would change its
coefficient's bits (a -0.0 part).  Terms are ordered by an integer key
that sorts like ``word``: the word's qubits ascending, each coded
4 q + 1, 2 or 3 for X, Y or Z, computed once per term.  A sum's support
and norm are computed once.  :func:`commutator` settles each word pair by
the parity of |(x1&z2) ^ (z1&x2)| before any product is formed, adds the
anticommuting pairs' products into an (x, z) table and builds a sum only
of what survives; :func:`words_commute` is the same parity test on bare
masks, which settles a pair of sums with no anticommuting word pair before
any sum is built.  :meth:`PauliSum.matrices` (``matrix`` for one sum) is
the one conversion to dense matrices.

Text form (read by ``parse_term`` / ``parse_sum``, written by ``str``)::

    term  := [coeff "*"] letter-token*   e.g.  "1.0 * Z1 Z2 Y5"
    sum   := term (" + " term)*
    coeff := real or complex written with an "i" suffix, e.g. "-2i", "(1+2i)"

A term with no letter tokens is a multiple of the identity.
"""

from __future__ import annotations

import math
import numbers
import operator
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import ModelFormatError

QUBIT_ID_LIMIT = 2 ** 20

# letter -> (x bit, z bit)
_BITS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_LETTER = {bits: letter for letter, bits in _BITS.items()}


def _times_i_power(c: complex, k: int) -> complex:
    """Multiply by i**k exactly (component swaps and sign flips only)."""
    k %= 4
    if k == 0:
        return c
    if k == 1:
        return complex(-c.imag, c.real)
    if k == 2:
        return complex(-c.real, -c.imag)
    return complex(c.imag, -c.real)


class _once:
    """A property computed on first read and then kept in the instance
    dict, which shadows it (``functools.cached_property`` without its
    lock)."""

    def __init__(self, fn):
        self.fn, self.name = fn, fn.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


def _bits(mask: int) -> tuple[int, ...]:
    """Positions of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class PauliTerm:
    """A coefficient times the Pauli word i^|x&z| X^x Z^z."""

    coeff: complex
    x: int = 0
    z: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coeff", complex(self.coeff))
        x, z = self.x, self.z
        if not (type(x) is int and type(z) is int and x >= 0 and z >= 0):
            raise ModelFormatError(f"Pauli masks must be non-negative ints, got x={x!r}, z={z!r}")

    @classmethod
    def from_letters(cls, coeff: complex, letters: Mapping[int, str]) -> "PauliTerm":
        """Term from a {qubit id: X/Y/Z} map; ids must be ints in [0, 2**20)."""
        x = z = 0
        for q, letter in letters.items():
            if type(q) is not int:
                if isinstance(q, bool) or not isinstance(q, numbers.Integral):
                    raise ModelFormatError(f"qubit id {q!r} is not an int")
                q = int(q)
            if not 0 <= q < QUBIT_ID_LIMIT:
                raise ModelFormatError(f"qubit id {q} is outside 0 <= id < 2**20")
            bits = _BITS.get(letter) if type(letter) is str else None
            if bits is None:
                bits = _BITS.get(str(letter).upper())
                if bits is None:
                    raise ModelFormatError(f"letters must be X/Y/Z: {dict(letters)}")
            x |= bits[0] << q
            z |= bits[1] << q
        return cls(coeff, x, z)

    @property
    def word(self) -> tuple[tuple[int, str], ...]:
        """The word as (qubit id, letter) pairs sorted by id."""
        return tuple((q, _LETTER[(self.x >> q) & 1, (self.z >> q) & 1])
                     for q in _bits(self.x | self.z))

    @_once
    def _key(self) -> tuple[int, ...]:
        """Order key that sorts like ``word``: 4 q + 1/2/3 for X/Y/Z, so
        4 * bit_length - 3/2/1 for the bit of qubit q."""
        x, z = self.x, self.z
        key = []
        mask = x | z
        while mask:
            low = mask & -mask
            key.append(4 * low.bit_length() - (3 if not z & low else 2 if x & low else 1))
            mask ^= low
        return tuple(key)

    @property
    def letters(self) -> dict[int, str]:
        return dict(self.word)

    @property
    def support(self) -> tuple[int, ...]:
        return _bits(self.x | self.z)

    def __mul__(self, other: Union["PauliTerm", complex]) -> "PauliTerm":
        if not isinstance(other, PauliTerm):
            return PauliTerm(self.coeff * complex(other), self.x, self.z)
        x, z = self.x ^ other.x, self.z ^ other.z
        k = ((self.x & self.z).bit_count() + (other.x & other.z).bit_count()
             + 2 * (self.z & other.x).bit_count() - (x & z).bit_count())
        return PauliTerm(_times_i_power(self.coeff * other.coeff, k), x, z)

    __rmul__ = __mul__

    def __neg__(self) -> "PauliTerm":
        return PauliTerm(-self.coeff, self.x, self.z)

    def __str__(self) -> str:
        body = " ".join(f"{l}{s}" for s, l in self.word)
        c = _format_coeff(self.coeff)
        return f"{c} * {body}" if body else c


def words_commute(a: Iterable[tuple[int, int]], b: Sequence[tuple[int, int]]) -> bool:
    """True iff every (x, z) word of ``a`` commutes with every word of
    ``b``, in which case sums of them commute exactly, whatever their
    coefficients."""
    for xa, za in a:
        for xb, zb in b:
            if ((xa & zb) ^ (za & xb)).bit_count() & 1:
                return False
    return True


def _keeps_bits(c: complex) -> bool:
    """True when 0j + c has the bits of c: neither part is -0.0."""
    return ((c.real != 0.0 or math.copysign(1.0, c.real) > 0.0)
            and (c.imag != 0.0 or math.copysign(1.0, c.imag) > 0.0))


_by_key = operator.attrgetter("_key")


@dataclass(frozen=True)
class PauliSum:
    """Canonically ordered sum of Pauli terms (combined, exact zeros dropped)."""

    terms: tuple[PauliTerm, ...]

    def __post_init__(self):
        terms = self.terms
        if not terms or len(terms) == 1 and terms[0].coeff != 0:
            object.__setattr__(self, "terms", tuple(terms))  # canonical already
            return
        combined: dict[tuple[int, int], complex] = {}
        single: dict[tuple[int, int], PauliTerm] = {}  # words met once
        for t in terms:
            key = t.x, t.z
            if key in combined:
                combined[key] += t.coeff
                single.pop(key, None)
            else:
                combined[key] = 0j + t.coeff
                single[key] = t
        canon = []
        for key, c in combined.items():
            if c != 0:
                t = single.get(key)
                canon.append(t if t is not None and _keeps_bits(t.coeff)
                             else PauliTerm(c, *key))
        canon.sort(key=_by_key)
        object.__setattr__(self, "terms", tuple(canon))

    @classmethod
    def of(cls, *terms: PauliTerm) -> "PauliSum":
        return cls(tuple(terms))

    @classmethod
    def zero(cls) -> "PauliSum":
        return cls(())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @_once
    def support(self) -> tuple[int, ...]:
        mask = 0
        for t in self.terms:
            mask |= t.x | t.z
        return _bits(mask)

    def norm(self) -> float:
        """Dimension-normalized Hilbert-Schmidt norm, sqrt(sum |c|^2)."""
        return self._norm

    @_once
    def _norm(self) -> float:
        return math.sqrt(sum(abs(t.coeff) ** 2 for t in self.terms))

    def __add__(self, other: Union["PauliSum", PauliTerm]) -> "PauliSum":
        other_terms = other.terms if isinstance(other, PauliSum) else (other,)
        return PauliSum(self.terms + tuple(other_terms))

    def __sub__(self, other: Union["PauliSum", PauliTerm]) -> "PauliSum":
        return self + (-other if isinstance(other, PauliTerm) else other * -1)

    def __mul__(self, other: Union["PauliSum", PauliTerm, complex]) -> "PauliSum":
        if isinstance(other, PauliTerm):
            other = PauliSum.of(other)
        if isinstance(other, PauliSum):
            return PauliSum(tuple(a * b for a in self.terms for b in other.terms))
        return PauliSum(tuple(t * complex(other) for t in self.terms))

    def __rmul__(self, other: complex) -> "PauliSum":
        return self * other

    def __neg__(self) -> "PauliSum":
        return self * -1

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(str(t) for t in self.terms)

    def matrix(self, qubits: Sequence[int]) -> np.ndarray:
        """Dense matrix on ``qubits``, the first one the most significant
        (``matrices`` of this sum alone)."""
        return PauliSum.matrices([self], [qubits])[0]

    @staticmethod
    def matrices(sums: Sequence["PauliSum"], qubits: Sequence[Sequence[int]]) -> np.ndarray:
        """Dense matrices of ``sums[k]`` on ``qubits[k]``, one stack (k, 2**n,
        2**n) for n qubits each, the first one the most significant.

        Each word is a signed permutation, X^x Z^z |j> = (-1)^|j&z| |j^x>,
        times its phase i^|x&z|, and a sum's words are added into its
        matrix in order.  ``qubits[k]`` must cover the support of
        ``sums[k]``.
        """
        n = len(qubits[0]) if len(qubits) else 0
        if any(len(qs) != n for qs in qubits):
            raise ValueError("every sum of one stack needs the same number of qubits")
        j = np.arange(2 ** n)
        parity = np.zeros_like(j)  # of the set bits of each index
        for b in range(n):
            parity ^= (j >> b) & 1
        k, x, z, c = [], [], [], []
        for at, (s, qs) in enumerate(zip(sums, qubits)):
            pos = {q: n - 1 - a for a, q in enumerate(qs)}
            for t in s.terms:
                k.append(at)
                x.append(sum(1 << pos[q] for q in _bits(t.x)))
                z.append(sum(1 << pos[q] for q in _bits(t.z)))
                c.append(_times_i_power(t.coeff, (t.x & t.z).bit_count()))
        out = np.zeros((len(sums), 2 ** n, 2 ** n), dtype=complex)
        k, x, z = (np.array(a, dtype=np.intp)[:, None] for a in (k, x, z))
        np.add.at(out, (k, x ^ j, j), np.array(c, dtype=complex)[:, None] * (1 - 2 * parity[z & j]))
        return out


def as_sum(obj: Union[PauliSum, PauliTerm]) -> PauliSum:
    return obj if isinstance(obj, PauliSum) else PauliSum.of(obj)


def commutator(a: Union[PauliSum, PauliTerm], b: Union[PauliSum, PauliTerm]) -> PauliSum:
    """[a, b] as an exact Pauli sum; commuting pairs cancel to the empty sum.

    Each anticommuting word pair contributes 2 ta tb, with the coefficient
    ``(ta * tb) * 2`` would have; a lone contribution is kept as it is, and
    several are added per (x, z) in pair order starting from 0j, as
    ``PauliSum`` combines them.  Only the words that survive become terms.
    """
    sa, sb = as_sum(a), as_sum(b)
    out: list[tuple[int, int, complex]] = []
    for ta in sa.terms:
        xa, za, ca = ta.x, ta.z, ta.coeff
        ka = (xa & za).bit_count()
        for tb in sb.terms:
            xb, zb = tb.x, tb.z
            if not ((xa & zb) ^ (za & xb)).bit_count() & 1:
                continue
            x, z = xa ^ xb, za ^ zb
            k = ka + (xb & zb).bit_count() + 2 * (za & xb).bit_count() - (x & z).bit_count()
            out.append((x, z, _times_i_power(ca * tb.coeff, k) * (2 + 0j)))
    if len(out) > 1:
        table: dict[tuple[int, int], complex] = {}
        for x, z, c in out:
            table[x, z] = table.get((x, z), 0j) + c
        out = [(x, z, c) for (x, z), c in table.items() if c != 0]
    return PauliSum(tuple(PauliTerm(c, x, z) for x, z, c in out))


_TOKEN_RE = re.compile(r"^([XYZI])(\d+)$", re.IGNORECASE)


def _format_coeff(c: complex) -> str:
    if c.imag == 0.0:
        return repr(c.real)
    if c.real == 0.0:
        return f"{c.imag!r}i"
    sign = "+" if c.imag >= 0 else "-"
    return f"({c.real!r}{sign}{abs(c.imag)!r}i)"


def _parse_coeff(text: str) -> complex:
    raw = text.strip()
    if raw.startswith("(") and raw.endswith(")"):
        raw = raw[1:-1].strip()
    raw = raw.replace("i", "j").replace("I", "j").replace(" ", "")
    if raw in ("", "+"):
        return 1.0 + 0j
    if raw == "-":
        return -1.0 + 0j
    try:
        return complex(raw)
    except ValueError:
        raise ModelFormatError(f"cannot parse coefficient {text!r}") from None


def parse_term(text: str) -> PauliTerm:
    """Parse a single term such as ``"1.0 * Z1 Z2 Y5"`` or ``"Z1 Z2"``."""
    text = text.strip()
    if "*" in text:
        coeff_str, _, body = text.partition("*")
        coeff = _parse_coeff(coeff_str)
        tokens = body.split()
    else:
        tokens = text.split()
        coeff = 1.0 + 0j
        if tokens and not _TOKEN_RE.match(tokens[0]):
            coeff = _parse_coeff(tokens[0])
            tokens = tokens[1:]
    letters: dict[int, str] = {}
    for tok in tokens:
        m = _TOKEN_RE.match(tok)
        if not m:
            raise ModelFormatError(f"bad Pauli token {tok!r} in {text!r}")
        letter, site = m.group(1).upper(), int(m.group(2))
        if site in letters:
            raise ModelFormatError(f"site {site} repeated in {text!r}")
        if letter != "I":
            letters[site] = letter
    return PauliTerm.from_letters(coeff, letters)


def parse_sum(text: str) -> PauliSum:
    """Parse a sum of terms separated by `` + `` / `` - ``."""
    parts = re.split(r"\s([+-])\s", text.strip())
    if parts == [""]:
        return PauliSum.zero()
    terms = [parse_term(parts[0])]
    for k in range(1, len(parts), 2):
        t = parse_term(parts[k + 1])
        terms.append(t if parts[k] == "+" else -t)
    return PauliSum(tuple(terms))
