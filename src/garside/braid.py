"""
braid: the classical Garside structure of the braid group B_n.

Simple elements are permutations of {1..n}, stored as 0-indexed image
tables (tuples), so composition is a table lookup and never requires
enumerating the n! simples.  The product convention is "apply left factor
first": (a*b)(i) = b(a(i)), which makes the map braid -> permutation a
homomorphism when braid words are read left to right.

Divisibility matches the weak order on permutations: a left-divides b
exactly when the inversion set of a is contained in that of b, and an atom
s_k left-divides a simple exactly when its table has a descent at k.  The
meet is computed by a greedy common-descent sweep, and the join as the
transitive closure of the union of the two inversion sets, held as one
bitset row per position.  Each is the faster of the two algorithms for its
operation in CPython (figures in their docstrings).

The normal-form, cycling and transport layers ask for the same few
thousand simple-lattice operations over and over, so each structure
memoises them in one kind of table, _Memo: a dict from argument tuples to
results that is cleared whole when it outgrows _CACHE_CAP entries, which
bounds the memory of a long-lived process; under threads a clear that
races with another call only costs that call a recomputation.  The kernel
tables hold the inverse, right complement, tau, meet and join of simples;
meets and joins with D, the identity or equal arguments are answered
before their table.  One level up, the four steps of core.GarsideStructure
(the transport chains' a-, v- and w-steps and the normal form's slide,
whose first factor is also the pushforward's b-chain step) are tables of
the generic steps keyed by the (factor, argument) pair, so a step that
recurs costs one dict lookup instead of its chain of two to four kernel
calls, and the kernel tables are reached only on a step miss; a v-step
miss goes through the slide and w-step tables.  Nine tables in all.  The
atom count (norm) has no table: only exponent_sum asks for it, and mostly
for simples it has not seen.
"""

from __future__ import annotations

import operator
import random

from .core import CanonicalElement, GarsideStructure, delta_power, identity_element, simple_element

# A simple element of B_n: the image table of a permutation of {0..n-1}.
PermSimple = tuple[int, ...]

# Entries per memo table, kernel and step tables alike.  For the ultra and
# C* sets of 30 test-3 braids of B_20 (l=5), 82,908 meet calls needed 13,105
# sweeps with unbounded tables and 13,886 with this cap, at a peak RSS of
# 24.6 MB against 19.5 MB (16.5 MB with no memo; Python 3.11.7).  On the
# first pass over the fixed operation prefixes of the three benchmark
# workloads (seed 3), unbounded step tables end with 305 - 8,197 entries for
# the transport steps and up to 18,704 for slide (B_10 queries), which also
# serves the pushforward's b-chain.  With this cap the same prefixes make at
# most 3% more kernel calls (meet, join, mul, left_quotient and
# right_complement) than with unbounded tables (55,276 against 53,843 in
# B_20, 124,073 against 122,156 on the queries), while a cap of 8,192 took
# the in-process peak RSS of the B_20 prefix from 25.1 to 32.0 MB.
# Clearing whole keeps a table half full on average, where
# least-recently-used eviction keeps it at the cap: with per-instance
# functools.lru_cache tables the in-process peak RSS of the generic-b20 and
# queries prefixes went from 26.6 to 29.7 MB and from 26.8 to 30.7 MB
# (medians of five).
_CACHE_CAP = 2048


class _Memo(dict):
    """
    fn memoised on its argument tuple: memo[args] is fn(*args).  A miss
    that takes the table past _CACHE_CAP entries clears it and keeps only
    the new entry.
    """

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, args):
        value = self[args] = self.fn(*args)
        if len(self) > _CACHE_CAP:
            # storing before the check keeps the bound when threads race
            self.clear()
            self[args] = value
        return value


class BraidStructure(GarsideStructure):
    """Classical Garside structure on B_n; hashable and compared by n."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("braid groups need at least 2 strands")
        self.n = n
        self.identity: PermSimple = tuple(range(n))
        self.delta: PermSimple = tuple(range(n - 1, -1, -1))
        self.atoms = tuple(self._transposition(k) for k in range(n - 1))
        self.order_of_tau = 1 if n == 2 else 2
        self.delta_norm = n * (n - 1) // 2
        self._values = frozenset(range(n))
        m = n - 1
        # the kernel tables; meet and join answer their shortcuts first.  A
        # simple is a tuple, so a table of one simple is keyed by the simple
        # itself and its function takes the simple's entries: a 1-tuple key
        # would cost 60 ns per hit and 64 bytes per entry (Python 3.11.7).
        self._inverses = _Memo(self._inverse)
        self._complements = _Memo(lambda *a: tuple(m - v for v in self.inverse_table(a)))
        self._taus = _Memo(lambda *a: tuple(m - v for v in reversed(a)))
        self._meets = _Memo(self._meet)
        self._joins = _Memo(self._join)
        # the generic steps, so the kernel is only called on a step miss
        self._a_steps = _Memo(super().a_step)
        self._v_steps = _Memo(super().v_step)
        self._w_steps = _Memo(super().w_step)
        self._slides = _Memo(super().slide)

    def _transposition(self, k: int) -> PermSimple:
        t = list(range(self.n))
        t[k], t[k + 1] = t[k + 1], t[k]
        return tuple(t)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BraidStructure) and other.n == self.n

    def __hash__(self) -> int:
        return hash(("braid", self.n))

    def __repr__(self) -> str:
        return f"BraidStructure(n={self.n})"

    def __reduce__(self):
        # the tables hold closures, so a pickle names the interned structure
        # and unpickling shares its memos instead of shipping them
        return braid_structure, (self.n,)

    # -- primitive table operations -------------------------------------

    def mul(self, a: PermSimple, b: PermSimple) -> PermSimple:
        # n >= 2, so itemgetter always returns a tuple
        return operator.itemgetter(*a)(b)

    def inverse_table(self, a: PermSimple) -> PermSimple:
        return self._inverses[a]

    def _inverse(self, *a: int) -> PermSimple:
        inv = [0] * self.n
        for i, v in enumerate(a):
            inv[v] = i
        return tuple(inv)

    def left_quotient(self, a: PermSimple, b: PermSimple) -> PermSimple:
        return self.mul(self.inverse_table(a), b)

    def right_complement(self, a: PermSimple) -> PermSimple:
        return self._complements[a]

    def tau_pow(self, a: PermSimple, k: int) -> PermSimple:
        """tau^k(a); tau is an involution here, so at most one table lookup."""
        return a if k % self.order_of_tau == 0 else self._taus[a]

    def norm(self, a: PermSimple) -> int:
        """Atom count of the simple = inversion number of the permutation."""
        n = self.n
        return sum(1 for i in range(n) for j in range(i + 1, n) if a[i] > a[j])

    # -- the lattice ------------------------------------------------------

    def meet(self, a: PermSimple, b: PermSimple) -> PermSimple:
        """
        Left gcd, memoised.  Equal arguments, D and the identity are
        answered first: of the sweep time over the distinct meets of the
        ultra and C* sets of 30 test-3 braids of B_20 (l=5), pairs with a D
        argument took 24% and equal pairs 12%.  Everything else goes
        through the table to the greedy sweep _meet.

        Two replacements for the sweep were measured per distinct call on
        recorded B_20 workload arguments and rejected as no faster in
        CPython: a suffix-minimum merge-sort meet (Epstein et al., Word
        Processing in Groups, ch. 9) at 51.4 us against 38.6 us, and the
        bitset closure of _join run on the complementary (non-inversion)
        rows.  Unlike the join's, the sweep's cost is the length of the
        meet, which is short: on the 4,252 meets of the traced seed-3
        generic-b20 prefix the bitset meet took 26.3 us against 18.0 us
        (medians of seven passes, Python 3.11.7, two shared vCPUs), and it
        also lost at n = 5 (7.7 us against 5.1 us) and n = 6 - 10 (13.8 us
        against 7.2 us).
        """
        if a == b or b == self.delta:
            return a
        if a == self.delta:
            return b
        if a == self.identity or b == self.identity:
            return self.identity
        return self._meets[a, b]

    def _meet(self, a: PermSimple, b: PermSimple) -> PermSimple:
        """
        Left gcd by the greedy sweep: repeatedly strip an atom that
        left-divides both quotients, i.e. a position where both tables
        descend.  New common descents only appear next to a swap, so the
        candidate stack keeps the sweep near-linear.
        """
        va, vb = list(a), list(b)
        minv = list(range(self.n))  # inverse of the meet built so far
        todo = [
            k
            for k in range(self.n - 1)
            if va[k] > va[k + 1] and vb[k] > vb[k + 1]
        ]
        while todo:
            k = todo.pop()
            if va[k] > va[k + 1] and vb[k] > vb[k + 1]:
                va[k], va[k + 1] = va[k + 1], va[k]
                vb[k], vb[k + 1] = vb[k + 1], vb[k]
                minv[k], minv[k + 1] = minv[k + 1], minv[k]
                if k > 0:
                    todo.append(k - 1)
                if k < self.n - 2:
                    todo.append(k + 1)
        out = [0] * self.n
        for i, v in enumerate(minv):
            out[v] = i
        return tuple(out)

    def join(self, a: PermSimple, b: PermSimple) -> PermSimple:
        """
        Left lcm, memoised like meet.  Identity arguments, answered first,
        took 28% of the sweep time over the distinct joins of the same
        B_20 workload.  Everything else goes through the table to the
        bitset closure _join.
        """
        if a == b or b == self.identity:
            return a
        if a == self.identity:
            return b
        if a == self.delta or b == self.delta:
            return self.delta
        return self._joins[a, b]

    def _join(self, a: PermSimple, b: PermSimple) -> PermSimple:
        """
        Left lcm as the transitive closure of the union of the two
        inversion sets (Bjorner and Brenti, Combinatorics of Coxeter
        Groups, 2005, ch. 3).  rows[i] holds, as bits, the later positions
        j whose value is smaller than the one at i; each argument's rows
        are built in one pass over its inverse table, i.e. over positions
        in increasing order of value.  The rows are closed from the last
        position down, each OR-ing in the closed rows of its own bits from
        the lowest up and skipping bits already covered, and the table is
        read back from the row sizes, which form its Lehmer code.

        The closure costs about n big-int operations however long the
        join is, where the meet sweep on complemented tables (w0 o p
        complements an inversion set) pays one adjacent swap per inversion
        missing from the join, on average 80 of the 190 in B_20.  On the
        7,041 joins of the traced seed-3 generic-b20 prefix it took 26.8 us
        against 54.5 us (medians of seven passes, Python 3.11.7, two shared
        vCPUs), and it also won at n = 5 (7.2 us against 9.7 us) and
        n = 6 - 10 (13.1 us against 19.2 us).  The complemented sweep is
        kept as the test oracle sweep_join.
        """
        n = self.n
        rows = [0] * n
        for inv in (self.inverse_table(a), self.inverse_table(b)):
            smaller = 0  # positions of the values seen so far
            for p in inv:
                rows[p] |= smaller >> p << p
                smaller |= 1 << p
        for i in range(n - 2, -1, -1):
            row = todo = rows[i]
            while todo:
                low = todo & -todo
                closed = rows[low.bit_length() - 1]
                row |= closed
                todo &= ~(closed | low)
            rows[i] = row
        avail = list(range(n))
        return tuple([avail.pop(row.bit_count()) for row in rows])

    def atom_divides(self, k: int, a: PermSimple) -> bool:
        """Whether the atom s_{k+1} left-divides the simple a."""
        return a[k] > a[k + 1]

    def is_simple(self, a: object) -> bool:
        """Whether a is a tuple of ints that permutes range(n)."""
        try:
            # an unhashable entry raises TypeError, and a float equal to an
            # int passes the set test but makes the sum a float
            return (
                isinstance(a, tuple)
                and len(a) == self.n
                and set(a) == self._values
                and type(sum(a)) is int
            )
        except TypeError:
            return False

    # -- memoised steps ------------------------------------------------------
    # One-line methods rather than tables with a __call__ method, which is
    # slower to call: a hit on a table of 200 pairs of B_10 simples took
    # 0.28 us through a method and 0.36 us through __call__ (minima of 30
    # interleaved timings, Python 3.11.7).

    def a_step(self, x: PermSimple, a: PermSimple) -> PermSimple:
        return self._a_steps[x, a]

    def v_step(self, x: PermSimple, v: PermSimple) -> PermSimple:
        return self._v_steps[x, v]

    def w_step(self, x: PermSimple, w: PermSimple) -> PermSimple:
        return self._w_steps[x, w]

    def slide(self, a: PermSimple, b: PermSimple) -> tuple[PermSimple, PermSimple]:
        return self._slides[a, b]

    # -- conversions -------------------------------------------------------

    def reduced_word(self, a: PermSimple) -> list[int]:
        """A reduced word (0-indexed atom list) for the simple a."""
        word = []
        t = list(a)
        changed = True
        while changed:
            changed = False
            for k in range(self.n - 1):
                if t[k] > t[k + 1]:
                    word.append(k)
                    t[k], t[k + 1] = t[k + 1], t[k]
                    changed = True
        return word


_STRUCTURES: dict[int, BraidStructure] = {}


def braid_structure(n: int) -> BraidStructure:
    """Interned braid structures, so repeated lookups share caches."""
    s = _STRUCTURES.get(n)
    if s is None:
        s = _STRUCTURES[n] = BraidStructure(n)
    return s


def perm_to_one_indexed(a: PermSimple) -> list[int]:
    return [v + 1 for v in a]


class WordError(ValueError):
    """Raised for malformed input words."""


def parse_word(text: str, n: int) -> CanonicalElement:
    """
    Normal form of a whitespace-separated word: the product of its letters,
    multiplied in from left to right.

    Tokens are nonzero integers k for the Artin generator s_k (negative for
    its inverse) or "D"/"D^-1" for the Garside element.
    """
    s = braid_structure(n)
    x = identity_element(s)
    for tok in text.split():
        if tok in ("D", "D^-1"):
            x = x * delta_power(s, 1 if tok == "D" else -1)
            continue
        try:
            k = int(tok)
        except ValueError:
            raise WordError(f"malformed token {tok!r}") from None
        if k == 0 or abs(k) >= n:
            raise WordError(f"generator index {k} out of range for {n} strands")
        letter = simple_element(s, s.atoms[abs(k) - 1])
        x = x * (letter if k > 0 else letter.inv())
    return x


def word_str(x: CanonicalElement) -> str:
    """
    Render an element as a word parse_word accepts: "D"/"D^-1" letters for
    the leading power, then one-indexed generator letters per factor.
    """
    s = x.struct
    parts = ["D"] * x.power if x.power >= 0 else ["D^-1"] * (-x.power)
    for f in x.factors:
        parts.extend(str(k + 1) for k in s.reduced_word(f))
    return " ".join(parts)


def random_simple(rng: random.Random, n: int) -> PermSimple:
    """
    A uniform random non-identity simple of B_n (D included).  Determined by
    the generator state, so a fixed seed reproduces the same sequence.
    Raises ValueError for n < 2, where the identity is the only simple.
    """
    if n < 2:
        raise ValueError("braid groups need at least 2 strands")
    table = list(range(n))
    while True:
        rng.shuffle(table)
        if any(table[i] != i for i in range(n)):
            return tuple(table)
