"""
core: canonical-form arithmetic for Garside groups.

Every group element is kept in left normal form D^p x_1 ... x_l, where D is
the Garside element of the structure, each factor x_i is a simple element
distinct from the identity and from D, and each adjacent pair of factors is
left-weighted: no nontrivial left divisor of x_{i+1} can be absorbed into
x_i (equivalently, the right complement of x_i and x_{i+1} have trivial
meet).  The normal form is unique, so equality of group elements is tuple
equality of (structure, p, factors).

The arithmetic is parameterized over a GarsideStructure, which supplies the
lattice of simple elements (meet, join, complements, tau) as opaque handles.
This module never enumerates the simple elements, so structures with huge
simple sets (the braid group B_n has n! of them) work fine.

All values are immutable once built and every operation is pure, so elements
and structures may be freely shared between threads or tasks.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Any, Hashable, Iterable, Sequence

Simple = Hashable  # opaque handle owned by the structure


class GarsideStructure(abc.ABC):
    """
    A Garside structure: the lattice of simple elements together with the
    distinguished elements and maps the normal-form machinery needs.

    Concrete subclasses must be hashable and comparable by value, since
    elements embed a reference to their structure.
    """

    identity: Simple
    delta: Simple
    atoms: tuple[Simple, ...]
    order_of_tau: int  # least e > 0 with tau^e = id on simples
    delta_norm: int    # number of atoms in any atom decomposition of D

    @abc.abstractmethod
    def mul(self, a: Simple, b: Simple) -> Simple:
        """Product of two simples, valid whenever the product divides D."""

    @abc.abstractmethod
    def left_quotient(self, a: Simple, b: Simple) -> Simple:
        """a^{-1} b, valid whenever a left-divides b."""

    @abc.abstractmethod
    def right_complement(self, a: Simple) -> Simple:
        """a^{-1} D."""

    @abc.abstractmethod
    def left_complement(self, a: Simple) -> Simple:
        """D a^{-1}."""

    @abc.abstractmethod
    def meet(self, a: Simple, b: Simple) -> Simple:
        """Left greatest common divisor of two simples."""

    @abc.abstractmethod
    def join(self, a: Simple, b: Simple) -> Simple:
        """Left least common multiple of two simples (again a simple)."""

    @abc.abstractmethod
    def tau(self, a: Simple) -> Simple:
        """Conjugation by D: D^{-1} a D."""

    @abc.abstractmethod
    def norm(self, a: Simple) -> int:
        """Number of atoms in any atom decomposition of the simple."""

    def tau_pow(self, a: Simple, k: int) -> Simple:
        for _ in range(k % self.order_of_tau):
            a = self.tau(a)
        return a

    def is_identity(self, a: Simple) -> bool:
        return a == self.identity

    def is_delta(self, a: Simple) -> bool:
        return a == self.delta

    def simple_divides(self, a: Simple, b: Simple) -> bool:
        """Whether a left-divides b within the lattice of simples."""
        return self.meet(a, b) == a

    def atom_divides(self, k: int, a: Simple) -> bool:
        """Whether the k-th atom left-divides the simple a."""
        return self.simple_divides(self.atoms[k], a)


@dataclasses.dataclass(frozen=True)
class CanonicalElement:
    """
    A group element in left normal form D^power f_1 ... f_k.

    Instances are only created by the normalization machinery in this module,
    which guarantees the factors are left-weighted and contain neither the
    identity nor D.  inf, sup and the canonical length are read off the
    fields.
    """

    struct: GarsideStructure
    power: int
    factors: tuple[Simple, ...]

    @property
    def inf(self) -> int:
        return self.power

    @property
    def sup(self) -> int:
        return self.power + len(self.factors)

    @property
    def clen(self) -> int:
        """Canonical length: the number of normal-form factors."""
        return len(self.factors)

    @property
    def is_identity(self) -> bool:
        return self.power == 0 and not self.factors

    @property
    def exponent_sum(self) -> int:
        """Total atom count, with sign; a cheap conjugacy invariant."""
        s = self.struct
        return self.power * s.delta_norm + sum(s.norm(f) for f in self.factors)

    def key(self) -> tuple:
        """Total-order key on elements of one structure: (power, factor tables)."""
        return (self.power, self.factors)

    def __mul__(self, other: "CanonicalElement") -> "CanonicalElement":
        if self.struct != other.struct:
            raise ValueError("elements belong to different structures")
        s = self.struct
        dp, factors = _mul_weighted(s, self.tau_pow(other.power).factors, other.factors)
        return CanonicalElement(s, self.power + other.power + dp, factors)

    def inv(self) -> "CanonicalElement":
        # (D^p x_1...x_l)^{-1} = rc(x_l) tau(rc(x_{l-1})) ... tau^{l-1}(rc(x_1)) D^{-l-p}
        # and the resulting word is already left-weighted; normalizing is a
        # cheap no-op pass kept for safety.  Moving D^{-l-p} to the front
        # applies tau^q to every letter, so letter i takes tau^{i+q} in all.
        s = self.struct
        p, fs = self.power, self.factors
        q = -(p + len(fs))
        word = [s.tau_pow(s.right_complement(fs[-1 - i]), i + q) for i in range(len(fs))]
        return normalize(s, q, word)

    def __pow__(self, exp: int) -> "CanonicalElement":
        if exp == 1:
            return self
        acc = CanonicalElement(self.struct, 0, ())
        base = self if exp >= 0 else self.inv()
        k = abs(exp)
        while k:
            if k & 1:
                acc = acc * base
            k >>= 1
            if k:
                base = base * base
        return acc

    def conj(self, u: "CanonicalElement") -> "CanonicalElement":
        """Conjugation u^{-1} * self * u."""
        return u.inv() * self * u

    def tau_pow(self, k: int) -> "CanonicalElement":
        """D^{-k} * self * D^k: factor-wise tau^k with the power unchanged."""
        s = self.struct
        if k % s.order_of_tau == 0:
            return self
        return CanonicalElement(s, self.power, tuple(s.tau_pow(f, k) for f in self.factors))

    def meet_delta(self, q: int) -> "CanonicalElement":
        """self /\\ D^q, read off the normal form as a prefix."""
        s = self.struct
        if q <= self.inf:
            return CanonicalElement(s, q, ())
        if q >= self.sup:
            return self
        return CanonicalElement(s, self.power, self.factors[: q - self.power])

    def divides(self, other: "CanonicalElement") -> bool:
        """Whether self left-divides other in the group's positive cone."""
        return (self.inv() * other).inf >= 0

    def validate(self) -> None:
        """Assert the normal-form invariants; used by tests, not hot paths."""
        s = self.struct
        for f in self.factors:
            if s.is_identity(f) or s.is_delta(f):
                raise AssertionError("factor equals identity or Delta")
        for a, b in zip(self.factors, self.factors[1:]):
            if not s.is_identity(s.meet(s.right_complement(a), b)):
                raise AssertionError("adjacent factors not left-weighted")

    def __repr__(self) -> str:
        return f"CanonicalElement(D^{self.power}, {len(self.factors)} factors)"


def identity_element(struct: GarsideStructure) -> CanonicalElement:
    return CanonicalElement(struct, 0, ())


def delta_power(struct: GarsideStructure, k: int) -> CanonicalElement:
    return CanonicalElement(struct, k, ())


def simple_element(struct: GarsideStructure, a: Simple, power: int = 0) -> CanonicalElement:
    """The element D^power * a for a single simple a."""
    if struct.is_delta(a):
        return CanonicalElement(struct, power + 1, ())
    if struct.is_identity(a):
        return CanonicalElement(struct, power, ())
    return CanonicalElement(struct, power, (a,))


def normalize(struct: GarsideStructure, power: int, word: Iterable[Simple]) -> CanonicalElement:
    """
    Left normal form of D^power * (product of word).

    Identity letters are absorbed and D letters migrate into the leading
    power; the function is idempotent on already-normal input.
    """
    factors = [f for f in word if not struct.is_identity(f)]
    dp, out = _weight_factors(struct, factors, range(len(factors) - 1))
    return CanonicalElement(struct, power + dp, out)


def _weight_factors(
    struct: GarsideStructure,
    factors: list[Simple],
    suspects: Iterable[int],
) -> tuple[int, tuple[Simple, ...]]:
    """
    Drive a factor list to its left-weighted fixed point by local sliding.

    A pair (a, b) slides to (a*c, c^{-1}b) with c = rc(a) /\\ b; the move
    shifts atom mass leftwards, so the process terminates, and the fixed
    point is independent of the processing order because a sequence is
    normal exactly when every adjacent pair is.  `suspects` seeds the
    positions that may violate weightedness (all of them for a raw word,
    just the junction after concatenating two normal words).
    """
    todo = sorted(set(suspects), reverse=True)
    pending = set(todo)
    meet = struct.meet
    rc = struct.right_complement
    is_id = struct.is_identity
    while todo:
        i = todo.pop()
        pending.discard(i)
        if i < 0 or i + 1 >= len(factors):
            continue
        a, b = factors[i], factors[i + 1]
        if is_id(b):
            continue
        c = meet(rc(a), b)
        if is_id(c):
            continue
        factors[i] = struct.mul(a, c)
        factors[i + 1] = struct.left_quotient(c, b)
        for j in (i - 1, i + 1):
            if 0 <= j < len(factors) - 1 and j not in pending:
                pending.add(j)
                todo.append(j)
    dp = 0
    lo, hi = 0, len(factors)
    while lo < hi and struct.is_delta(factors[lo]):
        lo += 1
        dp += 1
    while lo < hi and is_id(factors[hi - 1]):
        hi -= 1
    return dp, tuple(factors[lo:hi])


def _mul_weighted(
    struct: GarsideStructure,
    left: Sequence[Simple],
    right: Sequence[Simple],
) -> tuple[int, tuple[Simple, ...]]:
    """Product of two left-weighted factor sequences."""
    if not left:
        return 0, tuple(right)
    if not right:
        return 0, tuple(left)
    factors = [*left, *right]
    return _weight_factors(struct, factors, [len(left) - 1])
