"""Closed-form branching rules.

Two-step branching for Sp(n), Spin(2n+1), Spin(2n) down to the
next-smaller group of the same family times Sp(1) resp. Spin(2); the
restriction of E7 Cartan powers of the miniscule representation to
SU(2) x Spin(12); and the closed form for multiplicities in the
restriction of F4 irreps to Spin(9).

The three two-step rules walk exactly the two-step interlacing mu, depth
first (_interlacing_boxes), and share one character per mu: the product
of the boxes B(z1-z2), B(z3-z4), ... of the merged chain z.  The walk
hands each mu its box widths as a sorted tuple, and a rule's value
depends on mu only through them, its lowest weight and its last factor;
each rule reads that value from a cache keyed by this signature, so the
integer counts of a product of boxes are convolved once per distinct
signature and the frozen Spin2Modules are shared between keys and
calls.  The rules differ only in the last factor: Sp(1) takes one more
box and reads its constituents off the palindromic counts by first
differences; Spin(2n+1) convolves A(z_{2n-1}); Spin(2n) takes the counts
as they are and reaches the negative signs by reversing them.

Conventions: SU(2) representations are labeled by their integer highest
weight m (dimension m+1); Spin(2) weights are half-integers.  Branching
keys are epsilon-coordinate tuples of HalfInt.  The rules compute on
doubled integer coordinates: input is parsed once by _twice, and HalfInt
is built only for the keys they return (for F4 -> Spin(9), only for the
constituents that occur), each coordinate looked up in rootdata's
interning table _half, so a key shares its HalfInts with every other.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache, reduce

from .rootdata import HalfInt, Weight, _Record, _as_int, _half


def _twice(seq) -> tuple:
    """Doubled coordinates of a weight given as ints, Fractions, strings
    or HalfInts."""
    return tuple(HalfInt.of(c).twice for c in seq)


def _steps(lo: int, hi: int, parity: int) -> range:
    """Doubled values in [lo, hi] of the given parity, integer steps.
    The bounds need not have that parity themselves."""
    return range(lo + (lo - parity) % 2, hi + 1, 2)


# ---------------------------------------------------------------------------
# SU(2) Clebsch-Gordan


def clebsch_gordan(m: int, n: int) -> list:
    """Constituents of (m) tensor (n): |m-n|, |m-n|+2, ..., m+n."""
    if m < 0 or n < 0:
        raise ValueError("SU(2) weights must be nonnegative")
    return list(range(abs(m - n), m + n + 1, 2))


# ---------------------------------------------------------------------------
# Spin(2) weight modules


class Spin2Module(_Record):
    """Finite multiset of Spin(2) weights (half-integers): entries is a
    sorted tuple of (doubled weight, positive mult)."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple):
        object.__setattr__(self, "entries", entries)


def _box(counts: list, width: int) -> list:
    """counts convolved with a box of width ones: entry j is the sum of
    counts[j - width + 1 .. j], the difference of padded prefix sums.
    A box is a palindrome, so a product of boxes is one too."""
    sums = [0] * width
    sums += itertools.accumulate(counts)
    sums += [sums[-1]] * (width - 1)
    return list(map(
        operator.sub, sums[width:], sums[:len(counts) + width - 1]
    ))


# ---------------------------------------------------------------------------
# interlacing helpers


def _dominant_tuples(tbound: int, length: int, parity: int, signed_last: bool):
    """Descending doubled tuples with entries of the given parity in
    [0, tbound] (last entry in [-tbound, tbound] when signed_last)."""

    def rec(prefix, hi):
        if len(prefix) == length:
            yield prefix
            return
        last = len(prefix) == length - 1
        for t in range(hi, parity - 1, -2):
            yield from rec(prefix + (t,), t)
            if last and signed_last and t > 0:
                yield prefix + (-t,)

    yield from rec((), tbound - (tbound - parity) % 2)


def _interlacing_boxes(lam: tuple, parity: int) -> list:
    """(key, last, low, widths) for each mu that two-step interlaces lam,
    on doubled coordinates of the given parity; lam's last entry must be
    nonnegative.  key is mu as a HalfInt tuple, last its doubled last
    entry.

    mu is walked depth first over exactly the interlacing: mu_i runs
    from lam_(i+2) (0 past the end) up to U_i = min(lam_i, mu_(i-1)),
    U_0 = lam_0, so no mu is rejected.  Box i spans [L_i, U_i] with
    L_i = max(lam_(i+1), mu_i); widths is the sorted tuple of the box
    widths (U_i - L_i)/2 + 1 other than 1, so that mu with the same
    multiset of boxes get the same tuple (a product of boxes does not
    depend on their order).  The product of the boxes B(U_i - L_i) on
    the lattice of step 4 (doubled), reduce(_box, widths, [1]), is
    centered at sum(lam) + sum(mu) - sum(L_i + U_i); low is
    sum(lam) + sum(mu) - 2 sum(U_i), its lowest weight.  A prefix's
    widths and key entries serve its whole subtree."""
    n = len(lam)
    lows = lam[2:] + (0,)
    out = []

    def walk(i, key, cap, low, widths):
        hi = min(lam[i], cap)
        nxt = lam[i + 1]
        for m in _steps(lows[i], hi, parity):
            width = (hi - max(nxt, m)) // 2 + 1
            boxed = widths if width == 1 else widths + (width,)
            if i < n - 2:
                walk(i + 1, key + (_half(m),), m, low + m - 2 * hi, boxed)
            else:
                out.append((key + (_half(m),), m, low + m - 2 * hi,
                            tuple(sorted(boxed))))

    walk(0, (), lam[0], sum(lam), ())
    return out


# ---------------------------------------------------------------------------
# two-step branching rules


def branch_sp(lam) -> dict:
    """Sp(n) restricted to Sp(n-1) x Sp(1).

    Returns {mu: {su2 weight: mult}} over the mu that two-step interlace
    lam; the value is the Clebsch-Gordan decomposition of
    (z1-z2) x (z3-z4) x ... x (z_{2n-1}) for the merged chain z.  Its
    character is the product of the boxes of _interlacing_boxes and one
    more box of z_{2n-1} + 1 weights, z_{2n-1} = min(lam_n, mu_(n-1)):
    palindromic counts whose entry j is the multiplicity of the weight
    top - 2j, so (top - 2j) occurs counts[j] - counts[j-1] times for
    j <= top/2.
    """
    lam = _twice(lam)
    n = len(lam)
    if n < 2:
        raise ValueError("need rank >= 2")
    if any(t % 2 for t in lam) or any(
        lam[i] < lam[i + 1] for i in range(n - 1)
    ) or lam[-1] < 0:
        raise ValueError("lam must be a dominant integer Sp(n) weight")
    out = {}
    for key, last, _, widths in _interlacing_boxes(lam, 0):
        width = min(lam[-1], last) // 2 + 1
        if width > 1:
            widths = tuple(sorted(widths + (width,)))
        out[key] = dict(_sp_items(widths))
    return out


@lru_cache(maxsize=None)
def _sp_items(widths: tuple) -> tuple:
    """The (su2 weight, mult) items of branch_sp's value for the boxes of
    widths, the last one included; branch_sp copies them into a dict
    per key, so no mutable value is shared."""
    counts = reduce(_box, widths, [1])
    top = len(counts) - 1
    half = counts[:top // 2 + 1]
    return tuple(
        (top - 2 * j, c)
        for j, c in enumerate(map(operator.sub, half, [0] + half)) if c
    )


def _spin_parity(lam: tuple) -> int:
    if len({t % 2 for t in lam}) > 1:
        raise ValueError("Spin weight entries must be congruent mod 1")
    return lam[0] % 2


def branch_spin_odd(lam) -> dict:
    """Spin(2n+1) restricted to Spin(2n-1) x Spin(2).

    Returns {mu: Spin2Module}; the module is
    B(z1-z2) x B(z3-z4) x ... x A(z_{2n-1}) for the merged chain z.
    The B are the boxes of _interlacing_boxes (z_(2i+1) = U_i,
    z_(2i+2) = L_i); spread to the lattice of step 2, their product is
    convolved with A(z_{2n-1}), a box of z_{2n-1} + 1 weights,
    z_{2n-1} = min(lam_n, mu_(n-1)) doubled.
    """
    lam = _twice(lam)
    n = len(lam)
    if n < 2:
        raise ValueError("need rank >= 2")
    if any(lam[i] < lam[i + 1] for i in range(n - 1)) or lam[-1] < 0:
        raise ValueError("lam must be dominant")
    return {
        key: _odd_module(low, widths, min(lam[-1], last))
        for key, last, low, widths in _interlacing_boxes(
            lam, _spin_parity(lam))
    }


@lru_cache(maxsize=None)
def _odd_module(low: int, widths: tuple, z: int) -> Spin2Module:
    """branch_spin_odd's module for the boxes of widths with lowest
    weight low, convolved with A(z), z doubled."""
    counts = reduce(_box, widths, [1])
    spread = [0] * (2 * len(counts) - 1)
    spread[::2] = counts
    weights = itertools.count(low - 2 * z, 2)
    return Spin2Module(tuple(
        (t, c) for t, c in zip(weights, _box(spread, z + 1)) if c
    ))


def branch_spin_even(lam) -> dict:
    """Spin(2n) restricted to Spin(2n-2) x Spin(2).

    Keys mu keep their true (possibly negative) last coordinate.  With
    x = lam and y = mu, for y_(n-1) >= 0 and x_n >= 0 the Spin(2) module
    is the product of the B(U_i - L_i) over the intervals
    [L_i, U_i] = [max(x_(i+1), y_i), min(x_i, y_(i-1))] (U_1 = x_1, and
    the last lower bound is max(x_n, y_(n-1))), shifted to be centered
    at sum(lam) + sum(mu) - sum(L_i + U_i); see _interlacing_boxes.

    The walk covers exactly the mu with a module: y_i runs from its
    lower bound up to min(x_i, y_(i-1)), where the lower bound is
    x_(i+2) for i <= n - 3, |x_n| for i = n - 2 and 0 for the last
    entry.

    Negative signs come by symmetry, as conjugations by a disconnected
    orthogonal-group element normalizing the subgroup: flipping the
    sign of y_(n-1) negates every Spin(2) weight, and so does branching
    the flip of a lam with x_n < 0.  A product of boxes is a palindrome,
    so the negated module of weights low, low+4, ..., top has weights
    -top, ..., -low with the same counts: the twin key gets those, and
    x_n < 0 swaps the two modules of each pair.
    """
    lam = _twice(lam)
    n = len(lam)
    if n < 3:
        raise ValueError("need rank >= 3")
    if any(lam[i] < lam[i + 1] for i in range(n - 2)) or lam[-2] < abs(lam[-1]):
        raise ValueError("lam must be dominant")
    parity = _spin_parity(lam)
    flip = lam[-1] < 0
    out = {}
    for key, last, low, widths in _interlacing_boxes(
        lam[:-1] + (abs(lam[-1]),), parity
    ):
        pos, neg = _even_modules(low, widths)
        if flip:
            pos, neg = neg, pos
        out[key] = pos
        if last:
            out[key[:-1] + (_half(-last),)] = neg
    return out


@lru_cache(maxsize=None)
def _even_modules(low: int, widths: tuple) -> tuple:
    """(module, negated module) of branch_spin_even for the boxes of
    widths with lowest weight low."""
    counts = reduce(_box, widths, [1])
    top = low + 4 * (len(counts) - 1)
    return (Spin2Module(tuple(zip(range(low, top + 1, 4), counts))),
            Spin2Module(tuple(zip(range(-top, -low + 1, 4), counts))))


# ---------------------------------------------------------------------------
# E7 restriction


def restrict_e7_to_su2_spin12(k) -> list:
    """Restriction of the k-th Cartan power of the miniscule E7
    representation to SU(2) x Spin(12): pairs (x-y, (x,y,z,z,z,z)) over
    x >= y >= z >= 0 with x+y = k, all entries congruent mod 1."""
    k = _as_int(k)
    if k < 0:
        raise ValueError("need k >= 0")
    out = []
    for tx in range(2 * k, k - 1, -1):  # doubled x in [k, 2k] is x >= y
        ty = 2 * k - tx
        for tz in range(ty % 2, ty + 1, 2):
            out.append((
                (tx - ty) // 2,
                Weight.from_twice((tx, ty, tz, tz, tz, tz), "D6"),
            ))
    return sorted(out, key=lambda p: (p[0], p[1].twice()))


# ---------------------------------------------------------------------------
# F4 to Spin(9)


def _cg3(p: int, q: int, r: int, t: int) -> int:
    """Multiplicity of (t) in (p) x (q) x (r): the number of (k) in
    (p) x (q) with (t) in (k) x (r), i.e. of k = p + q mod 2 in
    [max(|p-q|, |r-t|), min(p+q, r+t)], when p + q + r + t is even."""
    if (p + q + r + t) % 2:
        return 0
    return max(0, (min(p + q, r + t) - max(abs(p - q), abs(r - t))) // 2 + 1)


def f4_to_spin9_table(a: int, b: int) -> dict:
    """All Spin(9) constituents {w: mult} of the F4 irrep with highest
    weight (a-b) w4 + b w3, for integers a >= b >= 0, over dominant w
    with w1 + w2 <= a + b in both congruence classes, in descending
    lexicographic order of w within each class.  The multiplicity of w
    is that of (a-b) in (a+b-w1-w2) x (w1-w2) x (2 w4); it does not
    read w3."""
    if not (a >= b >= 0):
        raise ValueError("need a >= b >= 0")
    top, out = 2 * (a + b), {}
    for parity in (0, 1):
        for t1 in range(top - parity, parity - 1, -2):
            for t2 in range(min(t1, top - t1), parity - 1, -2):
                # the multiplicity, once per w4
                p, q = a + b - (t1 + t2) // 2, (t1 - t2) // 2
                col = [
                    (t4, m) for t4 in range(t2, parity - 1, -2)
                    if (m := _cg3(p, q, t4, a - b))
                ]
                for t3 in range(t2, parity - 1, -2):
                    for t4, m in col:
                        if t4 <= t3:
                            out[tuple(map(_half, (t1, t2, t3, t4)))] = m
    return out
