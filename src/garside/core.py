"""
core: canonical-form arithmetic for Garside groups.

Every group element is kept in left normal form D^p x_1 ... x_l, where D is
the Garside element of the structure, each factor x_i is a simple element
distinct from the identity and from D, and each adjacent pair of factors is
left-weighted: no nontrivial left divisor of x_{i+1} can be absorbed into
x_i (equivalently, the right complement of x_i and x_{i+1} have trivial
meet).  The normal form is unique, so equality of group elements is equality
of (p, factors) within one structure.

The arithmetic is parameterized over a GarsideStructure, which supplies the
lattice of simple elements (meet, join, complements, tau) as opaque handles.
This module never enumerates the simple elements, so structures with huge
simple sets (the braid group B_n has n! of them) work fine.

Products and normal forms are built by right multiplication by one simple
at a time.  Appending a simple s to a normal word x_1...x_k makes the last
pair (x_k, s) left-weighted by a slide, and by the domino rule (Dehornoy et
al., Foundations of Garside Theory, 2015; Epstein et al., Word Processing in
Groups, ch. 9) it then suffices to slide the pairs leftwards, stopping at
the first pair that comes back unchanged: every pair to its left is
untouched and was weighted already.  A product of two normal forms appends
the right operand's factors in turn and stops as soon as one arrives
unchanged, because the rest of the right operand is weighted already; most
products therefore pay for their junction only.

All values are immutable once built and every operation is pure, so elements
and structures may be freely shared between threads or tasks.  An element
is a slotted value type, not a frozen dataclass: its fields are written
once by __init__ and its __setattr__ and __delattr__ raise, which keeps the
frozen contract at about half the dataclass's construction cost (see
CanonicalElement).
"""

from __future__ import annotations

import abc
from typing import Hashable, Iterable, Sequence

Simple = Hashable  # opaque handle owned by the structure


class GarsideStructure(abc.ABC):
    """
    A Garside structure: the lattice of simple elements together with the
    distinguished elements and maps the normal-form machinery needs.

    Concrete subclasses must be hashable and comparable by value, since
    elements embed a reference to their structure.  Simple handles are
    hashable and compared by value too: callers test for the identity and
    D with == against the identity and delta attributes.  They must also
    be totally ordered by <, because CanonicalElement.key compares factor
    handles: the order of the handles fixes the member order of every
    summit set, each trajectory's key element, the order in which the
    summit closures seed, and so the witnesses they assign.

    A structure gives each simple one handle of one type, and every handle
    that a method returns is of that type: two handles of one simple that
    differ in type, such as a tuple and bytes with the same entries,
    compare unequal, and the normal form would then keep a factor it should
    absorb.  Raw forms enter only through as_simple, which normalize
    applies to every letter.
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
    def meet(self, a: Simple, b: Simple) -> Simple:
        """Left greatest common divisor of two simples."""

    @abc.abstractmethod
    def join(self, a: Simple, b: Simple) -> Simple:
        """Left least common multiple of two simples (again a simple)."""

    @abc.abstractmethod
    def tau_pow(self, a: Simple, k: int) -> Simple:
        """tau^k(a), where tau is conjugation by D: tau(a) = D^{-1} a D."""

    @abc.abstractmethod
    def norm(self, a: Simple) -> int:
        """Number of atoms in any atom decomposition of the simple."""

    @abc.abstractmethod
    def as_simple(self, a: object) -> Simple:
        """
        The structure's handle for a, which is a handle or a raw form of a
        simple element that the structure accepts; ValueError otherwise.
        """

    def atom_divides(self, k: int, a: Simple) -> bool:
        """Whether the k-th atom left-divides the simple a."""
        atom = self.atoms[k]
        return self.meet(atom, a) == atom

    # -- steps --------------------------------------------------------------
    # The normal form and the transport chains (transport.py) move one
    # factor x at a time, so each of their steps is a function of a pair of
    # simples.  Three steps reach the lattice: the normal form's slide, the
    # residual x\w = x^{-1} (x \/ w) of Dehornoy et al., Foundations of
    # Garside Theory (2015), and the a-step.  The pushforward's other chain
    # takes the first factor of a slide, and the v-step is a slide followed
    # by a residual.  A structure may memoise any of the four.

    def a_step(self, x: Simple, a: Simple) -> Simple:
        """rc((x /\\ a)^{-1} x)."""
        return self.right_complement(self.left_quotient(self.meet(x, a), x))

    def v_step(self, x: Simple, v: Simple) -> Simple:
        """
        D^{-1} (D \\/ tau^{-1}(x v)).  With tau^{-1}(x v) = cp dp in normal
        form and r = rc(cp), this is the residual r\\dp.
        """
        cp, dp = self.slide(self.tau_pow(x, -1), self.tau_pow(v, -1))
        return self.w_step(self.right_complement(cp), dp)

    def w_step(self, x: Simple, w: Simple) -> Simple:
        """The residual x\\w = x^{-1} (x \\/ w)."""
        return self.left_quotient(x, self.join(x, w))

    def slide(self, a: Simple, b: Simple) -> tuple[Simple, Simple]:
        """
        (a c, c^{-1} b) with c = rc(a) /\\ b: the normal form's move on a
        factor pair, which returns (a, b) when the pair is left-weighted.
        """
        c = self.meet(self.right_complement(a), b)
        if c == self.identity:
            return a, b
        return self.mul(a, c), self.left_quotient(c, b)


class CanonicalElement:
    """
    A group element in left normal form D^power f_1 ... f_k.

    Instances are only created by the normalization machinery in this module,
    which guarantees the factors are left-weighted and contain neither the
    identity nor D.  inf, sup and the canonical length are read off the
    fields.  The constructor checks nothing: its factors must be handles
    that the structure produced, and raw words go through normalize.

    Elements are equal when they have the same power and factors in equal
    structures, so elements of different structures are never equal; the
    hash leaves the structure out, which spares its hash on every dict and
    set operation.

    The class is a value type.  Its three fields live in __slots__, so an
    instance has no __dict__; __init__ stores them through the slot
    descriptors' __set__, bound once below the class, and __setattr__ and
    __delattr__ raise AttributeError, so no field changes after
    construction and no attribute is added.  Copies and pickles rebuild the
    element from (struct, power, factors) through __reduce__.  It is not a
    frozen dataclass because the generated __init__ stores each field with
    object.__setattr__, and the normal-form arithmetic builds an element at
    nearly every step: in B_10, with x of canonical length 6,
    CanonicalElement(st, 0, x.factors[2:]) took 0.79-1.24 us as a frozen
    dataclass and takes 0.47-0.51 us as this class (timeit, best of nine,
    three alternating runs each, Python 3.11.7 on 2 shared vCPUs).
    """

    __slots__ = ("struct", "power", "factors")

    struct: GarsideStructure
    power: int
    factors: tuple[Simple, ...]

    def __init__(self, struct: GarsideStructure, power: int, factors: tuple[Simple, ...]) -> None:
        _set_struct(self, struct)
        _set_power(self, power)
        _set_factors(self, factors)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"CanonicalElement is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"CanonicalElement is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return CanonicalElement, (self.struct, self.power, self.factors)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, CanonicalElement):
            return NotImplemented
        return (
            self.power == other.power
            and self.factors == other.factors
            and (self.struct is other.struct or self.struct == other.struct)
        )

    def __hash__(self) -> int:
        return hash((self.power, self.factors))

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
    def exponent_sum(self) -> int:
        """Total atom count, with sign; a cheap conjugacy invariant."""
        s = self.struct
        return self.power * s.delta_norm + sum(s.norm(f) for f in self.factors)

    def key(self) -> tuple:
        """Total-order key on elements of one structure: (power, factor handles)."""
        return (self.power, self.factors)

    def __mul__(self, other: "CanonicalElement") -> "CanonicalElement":
        # D^p x D^r y = D^{p+r} tau^r(x) y: the left factors move past D^r
        s = self.struct
        if other.struct is not s and other.struct != s:
            raise ValueError("elements belong to different structures")
        power = self.power + other.power
        if not self.factors:
            return CanonicalElement(s, power, other.factors)
        left = self.factors
        k = other.power
        if k % s.order_of_tau:
            left = tuple([s.tau_pow(f, k) for f in left])
        if not other.factors:
            return CanonicalElement(s, power, left)
        dp, factors = _right_multiply(s, left, other.factors, True)
        return CanonicalElement(s, power + dp, factors)

    def inv(self) -> "CanonicalElement":
        # (D^p x_1...x_l)^{-1} = rc(x_l) tau(rc(x_{l-1})) ... tau^{l-1}(rc(x_1)) D^{-l-p},
        # and the word is already left-weighted with no identity or D letter
        # (El-Rifai and Morton 1994; Epstein et al., ch. 9).  Moving D^{-l-p}
        # to the front applies tau^q to every letter, so letter i takes
        # tau^{i+q} in all.
        s = self.struct
        p, fs = self.power, self.factors
        q = -(p + len(fs))
        word = tuple(s.tau_pow(s.right_complement(fs[-1 - i]), i + q) for i in range(len(fs)))
        return CanonicalElement(s, q, word)

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
        """
        Whether self left-divides other in the group's positive cone:
        self^{-1} other is positive, that is, its inf is at least 0.  The
        product raises ValueError for elements of different structures.
        """
        return (self.inv() * other).inf >= 0

    def __repr__(self) -> str:
        return f"CanonicalElement(D^{self.power}, {len(self.factors)} factors)"


_set_struct = CanonicalElement.struct.__set__
_set_power = CanonicalElement.power.__set__
_set_factors = CanonicalElement.factors.__set__


def identity_element(struct: GarsideStructure) -> CanonicalElement:
    return CanonicalElement(struct, 0, ())


def delta_power(struct: GarsideStructure, k: int) -> CanonicalElement:
    return CanonicalElement(struct, k, ())


def simple_element(struct: GarsideStructure, a: Simple, power: int = 0) -> CanonicalElement:
    """
    The element D^power * a for a single simple a, which must be a handle
    that the structure produced; it is not checked (see normalize).
    """
    if a == struct.delta:
        return CanonicalElement(struct, power + 1, ())
    if a == struct.identity:
        return CanonicalElement(struct, power, ())
    return CanonicalElement(struct, power, (a,))


def normalize(struct: GarsideStructure, power: int, word: Iterable[Simple]) -> CanonicalElement:
    """
    Left normal form of D^power * (product of word).

    Identity letters are absorbed and D letters migrate into the leading
    power; the function is idempotent on already-normal input.  This is the
    constructor from raw words, so it maps each letter to the structure's
    handle with as_simple, which raises ValueError on a letter that is not
    a simple of the structure.  The letters are multiplied in one at a
    time (_right_multiply), with no early stop, since a raw word need not be
    weighted.
    """
    word = [struct.as_simple(f) for f in word]
    dp, out = _right_multiply(struct, (), word, False)
    return CanonicalElement(struct, power + dp, out)


def _right_multiply(
    struct: GarsideStructure,
    left: Sequence[Simple],
    letters: Sequence[Simple],
    normal: bool,
) -> tuple[int, tuple[Simple, ...]]:
    """
    Multiply the left-weighted factor word left by the letters, one simple
    at a time, and return (leading D count, remaining factors).

    Each letter is appended and the pairs are slid leftwards with the
    structure's slide step, (a, b) -> (a c, c^{-1} b) with c = rc(a) /\\ b,
    until a pair comes back unchanged; by the domino rule the list is then
    left-weighted again.  A letter absorbed whole leaves the identity at the
    end, which is dropped; D letters move to the front, where the leading
    Ds are counted into the power at the end.  When normal is true the
    letters are themselves a left-weighted word with no identity or D, so
    once a letter arrives unchanged the rest is appended as it is.
    """
    out = list(left)
    slide = struct.slide
    identity = struct.identity
    for j, f in enumerate(letters):
        if f == identity:
            continue
        i = len(out) - 1
        out.append(f)
        while i >= 0:
            b = out[i + 1]
            a, rest = slide(out[i], b)
            if rest == b:  # already left-weighted, and so is every pair to the left
                break
            out[i], out[i + 1] = a, rest
            i -= 1
        if out[-1] == identity:
            out.pop()
        elif normal and i == len(out) - 2:  # f arrived unchanged
            out.extend(letters[j + 1:])
            break
    dp = 0
    delta = struct.delta
    while dp < len(out) and out[dp] == delta:
        dp += 1
    return dp, tuple(out[dp:])
