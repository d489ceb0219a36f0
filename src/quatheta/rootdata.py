"""Root systems and exact weights in epsilon coordinates.

Weights live in an ambient coordinate space per system (Bourbaki
conventions), with every coordinate a half-integer.  Root data has one
representation, _SysData (interned by _sys): ambient dimension, simple
roots, positive roots and rho, all as doubled integer tuples.  A product
group, a tuple of labels, is one more such record: its weights are the
concatenated factor weights, and its roots each factor's, padded with
zeros outside that factor's slice.  HalfInt and Weight exist for input
and output only: a HalfInt stores the doubled value and is parsed,
compared, hashed and printed, with no arithmetic.  The package turns a
doubled int into a HalfInt through one interning table, _half, so equal
coordinates share one object (tuple comparison and dict probing then
stop at identity), and each HalfInt computes its hash once, when built.
Nothing in this package touches floating point.

Supported system labels:

    A1 A2 A3 A5          su(n+1), ambient dimension n+1
    B1 B2 B3 B4          so(2n+1), ambient dimension n
    C1 C2 C3             sp(n), ambient dimension n
    D2 D3 D4 D6          so(2n), ambient dimension n
    G2                   ambient dimension 3 (coordinates sum to zero)
    F4 E6 E7 E8          ambient dimensions 4, 8, 8, 8 (E7 in x7 + x8 = 0,
                         E6 in x6 = x7 = -x8)
    Spin2                one-dimensional torus, no roots

Only the simple roots are written down (_SIMPLE, in the coordinates of
Bourbaki's Plates I-IX): e_i - e_(i+1) plus one end root for the
classical families, Bourbaki's E8 simple roots (the first six and seven
for E6 and E7), F4 from Plate VIII, and G2 in the realisation below.
The positive roots are their closure under the simple reflections
that raise a root.

G2 is realised inside the sum-zero plane of Z^3 with simple roots
(1,-1,0) and (-1,2,-1); the compact dual pair computations elsewhere in
the package rely on this realisation (rho = (2,1,-3)).

The root-data kernels behind the character oracle are integer-only, on
doubled coordinates: simple reflections divide with divmod, and the
weight lattice is "every simple-coroot pairing is an integer" (for G2,
E6 and E7, inside the span of the roots; A_n keeps the GL(n+1) weights
off it).  Dominant representatives are closed forms
(sorting and signed permutations) for the classical groups and G2; F4
and the E series take the closed form of a classical parabolic
subsystem plus reflections in one simple root.  Every Weyl orbit is
walked down from its dominant representative, layer by layer.  Fraction
appears only at the API edge: HalfInt accepts it, and compares and
hashes equal to it, recognising it through sys.modules without
importing fractions (a Fraction can only exist once that module is
loaded).

The package's value records derive from _Record: slotted, frozen
classes with explicit constructors, so importing the package needs
neither dataclasses nor fractions.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import islice
from operator import add, attrgetter, mul, sub


# ---------------------------------------------------------------------------
# frozen records


class _Record:
    """Base of the package's frozen value records.

    A subclass names its fields in __slots__ (they extend _fields) and
    sets them in its __init__ with object.__setattr__.  A slot whose
    name starts with an underscore is private state, not a field: it is
    left out of _fields, and so out of equality, the repr and
    __reduce__, and the subclass's __init__ sets it again on a rebuild.
    The base gives
    the rest of a frozen dataclass: assignment and deletion raise
    AttributeError, equality and hashing go by the field tuple within
    one exact class, the repr is Name(field=value, ...), and __reduce__
    rebuilds through the constructor, so pickle and copy work.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields += tuple(
            name for name in cls.__dict__.get("__slots__", ())
            if not name.startswith("_")
        )
        get = attrgetter(*cls._fields)
        cls._values = staticmethod(
            get if len(cls._fields) > 1 else lambda self: (get(self),)
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self._fields, self._values(self))
        )
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)


# ---------------------------------------------------------------------------
# half-integers

_MODULUS = sys.hash_info.modulus
_INV2 = pow(2, -1, _MODULUS)  # hash(Fraction(t, 2)) = ±|t| * _INV2 mod it


def _is_fraction(x) -> bool:
    """isinstance(x, Fraction), without importing fractions: no Fraction
    exists unless that module is loaded."""
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(x, fractions.Fraction)


class HalfInt(_Record):
    """An element of (1/2)Z stored as its doubled value.

    HalfInt(t) builds a fresh object; _half(t) returns the shared one.
    The hash, equal to that of the int or Fraction of the same value,
    is computed once into the private slot _hash, which is not a field.
    """

    __slots__ = ("twice", "_hash")

    def __init__(self, twice: int):
        object.__setattr__(self, "twice", twice)
        # agree with int/Fraction hashing so mixed-type dict keys work
        if twice % 2 == 0:
            h = hash(twice // 2)
        else:
            h = abs(twice) * _INV2 % _MODULUS
            if twice < 0:
                h = -2 if h == 1 else -h  # hash values are never -1
        object.__setattr__(self, "_hash", h)

    @staticmethod
    def of(x) -> "HalfInt":
        if isinstance(x, HalfInt):
            return x
        if isinstance(x, bool):
            raise TypeError("bool is not a weight coordinate")
        if isinstance(x, int):
            return _half(2 * x)
        if _is_fraction(x):
            if x.denominator not in (1, 2):
                raise ValueError(f"{x} is not a half-integer")
            return _half(int(x * 2))
        if isinstance(x, str):
            return HalfInt.parse(x)
        raise TypeError(f"cannot interpret {x!r} as a half-integer")

    @staticmethod
    def parse(s: str) -> "HalfInt":
        s = s.strip()
        num, slash, den = s.partition("/")
        try:
            if not slash:
                return _half(2 * int(s))
            if den.strip() == "2":
                return _half(int(num))
        except ValueError:
            pass
        raise ValueError(f"bad half-integer literal {s!r}")

    def __int__(self) -> int:
        if self.twice % 2:
            raise ValueError(f"{self} is not an integer")
        return self.twice // 2

    def _cmp_twice(self, other) -> int:
        # only the numeric types the hash agrees with: a string equal to
        # a HalfInt would have to hash like it too
        if not (isinstance(other, (HalfInt, int)) or _is_fraction(other)):
            raise TypeError(f"cannot compare a half-integer with {other!r}")
        return HalfInt.of(other).twice

    def __eq__(self, other):
        try:
            return self.twice == self._cmp_twice(other)
        except (TypeError, ValueError):
            return NotImplemented

    def __lt__(self, other):
        return self.twice < self._cmp_twice(other)

    def __le__(self, other):
        return self.twice <= self._cmp_twice(other)

    def __gt__(self, other):
        return self.twice > self._cmp_twice(other)

    def __ge__(self, other):
        return self.twice >= self._cmp_twice(other)

    def __hash__(self):
        return self._hash

    def __str__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    __repr__ = __str__


class _HalfTable(dict):
    """doubled int -> its HalfInt, built on the first lookup."""

    __slots__ = ()

    def __missing__(self, twice):
        self[twice] = h = HalfInt(twice)
        return h


_half = _HalfTable().__getitem__  # the one HalfInt of a doubled int


def _as_int(x) -> int:
    """x as an int, refused with ValueError where int() would truncate
    it."""
    n = int(x)
    if n != x:
        raise ValueError(f"{x} is not an integer")
    return n


def _twice_json(tvec) -> list:
    """JSON coordinates of a doubled vector: ints, or "n/2" strings."""
    return [t // 2 if t % 2 == 0 else f"{t}/2" for t in tvec]


# ---------------------------------------------------------------------------
# weights


class Weight(_Record):
    """A vector of half-integers tagged with its root-system label."""

    __slots__ = ("coords", "system")

    def __init__(self, coords: tuple, system: str):
        object.__setattr__(self, "coords", tuple(map(HalfInt.of, coords)))
        object.__setattr__(self, "system", system)

    def twice(self) -> tuple:
        return tuple(c.twice for c in self.coords)

    @staticmethod
    def from_twice(tvec, system: str) -> "Weight":
        return Weight(tuple(map(_half, tvec)), system)

    def to_json(self) -> list:
        return _twice_json(self.twice())

    @staticmethod
    def from_json(data, system: str) -> "Weight":
        return Weight(data, system)

    def __repr__(self):
        return f"Weight({', '.join(str(c) for c in self.coords)}; {self.system})"


# ---------------------------------------------------------------------------
# root-system construction (doubled coordinates throughout)


def _e(i: int, n: int, v: int = 2) -> tuple:
    row = [0] * n
    row[i] = v
    return tuple(row)


def _add(u, v) -> tuple:
    return tuple(map(add, u, v))


def _sub(u, v) -> tuple:
    return tuple(map(sub, u, v))


def _neg(u):
    return tuple(-a for a in u)


def _dot(u, v) -> int:
    return sum(map(mul, u, v))


def _chain(dim: int, *end) -> tuple:
    """e_1 - e_2, ..., e_(dim-1) - e_dim, then the end roots (doubled)."""
    return tuple(_sub(_e(i, dim), _e(i + 1, dim)) for i in range(dim - 1)) + end


# Bourbaki's E8 simple roots (Plate VII); E6 and E7 are the first six
# and seven, so all three share the ambient space R^8
_E8 = (
    (1, -1, -1, -1, -1, -1, -1, 1),
    (2, 2, 0, 0, 0, 0, 0, 0),
    (-2, 2, 0, 0, 0, 0, 0, 0),
    (0, -2, 2, 0, 0, 0, 0, 0),
    (0, 0, -2, 2, 0, 0, 0, 0),
    (0, 0, 0, -2, 2, 0, 0, 0),
    (0, 0, 0, 0, -2, 2, 0, 0),
    (0, 0, 0, 0, 0, -2, 2, 0),
)

# label -> (ambient dimension, simple roots), doubled
_SIMPLE = {
    **{f"A{n}": (n + 1, _chain(n + 1)) for n in (1, 2, 3, 5)},
    **{f"B{n}": (n, _chain(n, _e(n - 1, n))) for n in (1, 2, 3, 4)},
    **{f"C{n}": (n, _chain(n, _e(n - 1, n, 4))) for n in (1, 2, 3)},
    **{
        f"D{n}": (n, _chain(n, _add(_e(n - 2, n), _e(n - 1, n))))
        for n in (2, 3, 4, 6)
    },
    "G2": (3, ((2, -2, 0), (-2, 4, -2))),
    "F4": (4, ((0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1))),
    "E6": (8, _E8[:6]),
    "E7": (8, _E8[:7]),
    "E8": (8, _E8),
    "Spin2": (1, ()),
}

# label -> (its name, integer normals) of the span of the roots, for the
# labels whose weights must lie in it (Bourbaki's Plates V, VI; G2 as
# realised above).  A_n keeps the weights of GL(n+1), off its sum-zero
# plane: E6_4's V_M is (1,1,1,0,0,0) for A5.
_SPANS = {
    "G2": ("the sum-zero plane", ((1, 1, 1),)),
    "E6": ("the root span x6 = x7 = -x8",
           ((0, 0, 0, 0, 0, 1, -1, 0), (0, 0, 0, 0, 0, 0, 1, 1))),
    "E7": ("the root span x7 + x8 = 0", ((0, 0, 0, 0, 0, 0, 1, 1),)),
}


def _positive_roots(simple, norms) -> dict:
    """{positive root: its simple-coroot pairings}: the closure of the
    simple roots under each s_i that raises a root.

    A positive root beta that is not simple pairs positively with some
    simple root alpha_i, and s_i beta is a positive root of lower height
    (Humphreys, Lie Algebras, 10.2); so every positive root is reached
    from a simple root by reflections s_i with <beta, alpha_i^vee> = c < 0.
    s_i beta = beta - c alpha_i, and its pairings are beta's minus c
    times alpha_i's Cartan row: no dot product is recomputed.
    """
    cartan = [
        tuple(2 * _dot(b, a) // n for a, n in zip(simple, norms))
        for b in simple
    ]
    roots = dict(zip(simple, cartan))
    todo = list(roots)
    for b in todo:  # grows as roots are found
        pairing = roots[b]
        for i, c in enumerate(pairing):
            if c < 0:
                r = tuple(x - c * y for x, y in zip(b, simple[i]))
                if r not in roots:
                    roots[r] = tuple(
                        x - c * y for x, y in zip(pairing, cartan[i])
                    )
                    todo.append(r)
    return roots


class _SysData:
    """Interned root data in doubled coordinates, of one label or of a
    product group; every kernel is integer-only.

    pairing[k] holds the simple-coroot pairings <pos[k], alpha_i^vee> of
    the k-th positive root, and cartan[j] those of the j-th simple root:
    cartan[j][i] = <alpha_j, alpha_i^vee>.  spans lists (label, start,
    stop) for each factor's slice of a weight; a one-label record has one
    span.  A product record (label a tuple of labels) has each factor's
    simple and positive roots, pairings, Cartan rows and rho in that
    factor's slice, so every kernel but dominant_twice and
    sign_and_chamber reads it as it reads one label.  parts lists
    (record, start, stop) per factor for those two, the record None for
    a one-coordinate rank-one factor (B1, C1), which they answer inline;
    a B1 or C1 record is one such part, any other label none.  normals
    are integer vectors orthogonal to the roots that a weight of the
    lattice must be orthogonal to as well (_SPANS; a product's padded per
    factor), and span names where a one-label record's weights lie."""

    __slots__ = (
        "label", "dim", "rank", "simple", "pos", "rho2", "simple_norm",
        "pairing", "cartan", "spans", "normals", "span", "parts",
    )

    def __init__(self, label):
        if isinstance(label, tuple):
            # each factor's simple roots, padded with zeros outside its
            # slice; they are orthogonal across factors, so their closure
            # below is the factors' positive roots, each in its slice
            factors = tuple(map(_sys, label))
            dim = sum(d.dim for d in factors)
            spans, simple, normals, a = [], [], [], 0
            for lab, d in zip(label, factors):
                b = a + d.dim
                spans.append((lab, a, b))
                left, right = (0,) * a, (0,) * (dim - b)
                simple += (left + r + right for r in d.simple)
                normals += (left + r + right for r in d.normals)
                a = b
            simple = tuple(simple)
            self.spans, self.normals = tuple(spans), tuple(normals)
            self.span = None
            self.parts = tuple(
                (None if d.dim == 1 and d.rank else d, a, b)
                for d, (_, a, b) in zip(factors, spans)
            )
        elif label in _SIMPLE:
            dim, simple = _SIMPLE[label]
            self.spans = ((label, 0, dim),)
            self.span, self.normals = _SPANS.get(label, (None, ()))
            self.parts = ((None, 0, 1),) if dim == 1 and simple else ()
        else:
            raise ValueError(f"unsupported root system label {label!r}")
        self.label = label
        self.dim = dim
        self.rank = len(simple)
        self.simple = simple
        self.simple_norm = tuple(_dot(a, a) for a in simple)
        pos = _positive_roots(simple, self.simple_norm)
        self.pos = tuple(sorted(pos))
        self.pairing = tuple(map(pos.get, self.pos))
        self.cartan = tuple(map(pos.get, simple))
        rho2_doubled = [0] * dim  # 2*rho, doubled
        for a in pos:
            rho2_doubled = list(_add(rho2_doubled, a))
        if any(t % 2 for t in rho2_doubled):
            raise AssertionError(f"rho of {label} not a half-integer vector")
        self.rho2 = tuple(t // 2 for t in rho2_doubled)  # doubled rho

    def in_chamber(self, tvec) -> bool:
        """True iff the vector lies in the closed dominant chamber."""
        return all(_dot(tvec, a) >= 0 for a in self.simple)

    def is_integral(self, tvec) -> bool:
        """True iff the vector lies in the weight lattice: every
        simple-coroot pairing 2<w,a>/<a,a> is an integer, and the vector
        lies in the span of the roots where _SPANS requires it (G2, E6,
        E7, and those factors of a product).  A_n is not so restricted:
        its weights are those of GL(n+1)."""
        return all(
            2 * _dot(tvec, a) % n == 0
            for a, n in zip(self.simple, self.simple_norm)
        ) and not self.off_span(tvec)

    def off_span(self, tvec) -> bool:
        """True iff the vector leaves the span that _SPANS requires."""
        return any(_dot(tvec, n) for n in self.normals)

    def reflect_simple(self, tvec, i: int):
        a = self.simple[i]
        p, r = divmod(2 * _dot(tvec, a), self.simple_norm[i])
        if r:
            raise ValueError("vector not in the weight lattice")
        return tuple(x - p * y for x, y in zip(tvec, a))

    def dominant_twice(self, t):
        """Dominant Weyl representative of a doubled coordinate vector;
        a product's is its factors' representatives, slice by slice, and
        a B1 or C1 factor's is the absolute value of its coordinate."""
        if self.parts:
            u = ()
            for d, a, b in self.parts:
                u += (abs(t[a]),) if d is None else d.dominant_twice(t[a:b])
            return u
        if self.rank == 0:
            return tuple(t)
        fam = self.label[0]
        if fam == "A":
            return tuple(sorted(t, reverse=True))
        if fam in ("B", "C"):
            return tuple(sorted(map(abs, t), reverse=True))
        if fam == "D":
            return tuple(_d_chamber(t, reverse=True))
        if fam == "G":
            # W(G2) acts on the sum-zero plane by permutations and -1;
            # the chamber is t1 >= t2 >= 0 >= t3
            desc = sorted(t, reverse=True)
            if desc[1] < 0:
                desc = sorted(_neg(t), reverse=True)
            return tuple(desc)
        # F4 and E: every simple root but one spans a classical parabolic
        # subsystem (Bourbaki's Plates): alpha1..alpha3 of F4 are B3 on
        # coordinates 2-4, alpha2..alpha_r of E_r are D_(r-1), in
        # ascending order, on the first r-1 coordinates.  Its closed form
        # leaves only <t, alpha_extra> to fix; reflecting there and
        # closing again raises <t, rho> each round, and the rounds are
        # steps of a reduced walk to the chamber, at most l(w0) =
        # |positive roots| of them.
        t = tuple(t)
        extra = 3 if fam == "F" else 0
        n = self.rank - 1
        guard = len(self.pos)
        while True:
            if fam == "F":
                t = (t[0], *sorted(map(abs, t[1:]), reverse=True))
            else:
                t = (*_d_chamber(t[:n], reverse=False), *t[n:])
            if _dot(t, self.simple[extra]) >= 0:
                return t
            guard -= 1
            if guard < 0:
                raise AssertionError("reflection descent failed to terminate")
            t = self.reflect_simple(t, extra)

    def sign_and_chamber(self, v):
        """(sign, dominant_twice(v)) for a regular v, None for a singular
        one: v is singular iff <v, alpha> = 0 for some positive root, and
        the sign is det w = (-1)^l(w) for the w with w v dominant.

        The classical families read the sign off dominant_twice's closed
        forms, with no positive root visited.  W(A) permutes, so the sign
        is that of the permutation sorting v downward, and v is singular
        iff two entries tie.  W(B) = W(C) permutes and changes signs: the
        sign of sorting |v|, times -1 per negative entry, and v is
        singular iff an entry is 0 or two |entries| tie.  W(D) changes
        signs in pairs, so the sign is that of sorting |v| alone, and v
        is singular iff two |entries| tie.  A one-coordinate rank-one
        factor (B1, C1), alone or in a product, is answered inline: the
        sign of its coordinate, singular at 0.  A product multiplies its
        factors' signs.  G2, F4, E and Spin2 count the positive roots
        that pair negatively with v (l(w) counts them).  Every record but
        a product takes the chamber from dominant_twice.
        """
        if self.parts:
            sign, top = 1, []
            for d, a, b in self.parts:
                if d is None:
                    x = v[a]
                    if not x:
                        return None
                    if x < 0:
                        sign, x = -sign, -x
                    top.append(x)
                else:
                    hit = d.sign_and_chamber(v[a:b])
                    if hit is None:
                        return None
                    sign *= hit[0]
                    top += hit[1]
            return sign, tuple(top)
        fam = self.label[0]
        if fam == "A":
            sign = _sort_sign(v)
        elif fam in ("B", "C", "D"):
            mags = tuple(map(abs, v))
            sign = _sort_sign(mags)
            if fam != "D" and sign:
                if 0 in mags:
                    return None
                if sum(1 for x in v if x < 0) % 2:
                    sign = -sign
        else:
            sign = 1
            for a in self.pos:
                p = _dot(v, a)
                if not p:
                    return None
                if p < 0:
                    sign = -sign
        return (sign, self.dominant_twice(v)) if sign else None

    def orbit(self, dom, max_size: int) -> list:
        """Weyl orbit of a dominant doubled vector (in the weight lattice),
        refused as soon as it grows past max_size.

        The orbit is walked down from dom, applying s_i only where
        <u, alpha_i> > 0: each such step lengthens the shortest Weyl
        element reaching u by one, so the layers are disjoint and each is
        built once.
        """
        out = list(islice(self._walk(dom), max_size + 1))
        if len(out) > max_size:
            raise ValueError("orbit too large")
        return out

    def _walk(self, dom):
        """The orbit of dom, layer by layer down from it."""
        yield dom
        layer = {dom}
        while layer:
            nxt = set()
            for u in layer:
                for i, a in enumerate(self.simple):
                    if _dot(u, a) > 0:
                        v = self.reflect_simple(u, i)
                        if v not in nxt:
                            nxt.add(v)
                            yield v
            layer = nxt


def _sort_sign(t) -> int:
    """The sign of the permutation that sorts t downward, 0 if two
    entries tie."""
    sign = 1
    for i, x in enumerate(t):
        for y in t[i + 1:]:
            if x <= y:
                if x == y:
                    return 0
                sign = -sign
    return sign


def _d_chamber(t, reverse: bool) -> list:
    """The D_n chamber representative of t, as a list: |t| sorted (downward
    if reverse), with the smallest entry negated when t has an odd number
    of negative entries."""
    mags = sorted(map(abs, t), reverse=reverse)
    if sum(1 for x in t if x < 0) % 2:
        i = -1 if reverse else 0
        mags[i] = -mags[i]
    return mags


@lru_cache(maxsize=None)
def _sys(label) -> _SysData:
    """The interned root data of a label, or of the product group of a
    tuple of labels; a one-label tuple is that label."""
    if isinstance(label, tuple) and len(label) == 1:
        return _sys(label[0])
    return _SysData(label)


def highest_root(label: str) -> Weight:
    """The highest root: the dominant root of maximal length (the short
    dominant root is a second dominant root in B/C/F4/G2)."""
    d = _sys(label)
    dom = [a for a in d.pos if d.in_chamber(a)]
    if not dom:
        raise ValueError(f"{label} has no roots")
    top_norm = max(_dot(a, a) for a in dom)
    top = [a for a in dom if _dot(a, a) == top_norm]
    if len(top) != 1:
        raise ValueError(f"{label} is reducible: no unique highest root")
    return Weight.from_twice(top[0], label)


def highest_root_coefficients(label: str) -> tuple:
    """Expansion of the highest root in the simple roots, as integers in
    the order of _sys(label).simple."""
    d = _sys(label)
    coeffs = [0] * d.rank
    t = highest_root(label).twice()
    # a positive root beta that is not simple pairs positively with some
    # simple root alpha, and beta - alpha is again a positive root
    while t not in d.simple:
        i = next(i for i, a in enumerate(d.simple) if _dot(t, a) > 0)
        coeffs[i] += 1
        t = _sub(t, d.simple[i])
    coeffs[d.simple.index(t)] += 1
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# dominant representatives


def dominant_representative(w: Weight) -> Weight:
    """The dominant Weyl-chamber representative of the orbit of w.

    Classical families use the signed-permutation normal form and G2
    sorts up to sign, which is a Weyl action only on the sum-zero plane.
    F4 and the E series apply the closed form of a classical parabolic
    subsystem and reflect in the one remaining simple root until it
    pairs non-negatively; that reflection requires w to be in the weight
    lattice (integral simple pairings) and raises ValueError otherwise.
    A G2, E6 or E7 weight off the span of the roots (is_integral's span
    rule) raises ValueError.
    """
    d = _sys(w.system)
    t = w.twice()
    if d.off_span(t):
        raise ValueError(
            f"{w!r} has no dominant representative for {w.system}: "
            f"it must lie in {d.span}"
        )
    return Weight.from_twice(d.dominant_twice(t), w.system)


# ---------------------------------------------------------------------------
# quaternionic structure table


class QuaternionicStructure(_Record):
    """Data of the quaternionic real form attached to a group label.

    m_factors are the root-system labels of the factors of M, in the
    order used for highest weights elsewhere; m_simple_coords gives, for
    the factors that are single SU(2)'s, the simple root of the ambient
    system spanning that factor (doubled coordinates).  vm_hw is the
    highest weight tuple of V_M factor by factor.
    """

    __slots__ = (
        "g_label", "system", "m_label", "m_factors", "vm_hw", "vm_dim",
        "alpha0", "k_label", "m_simple_coords",
    )

    def __init__(
        self, g_label: str, system: str, m_label: str, m_factors: tuple,
        vm_hw: tuple, vm_dim: int, alpha0: Weight, k_label: str,
        m_simple_coords: tuple,
    ):
        object.__setattr__(self, "g_label", g_label)
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "m_label", m_label)
        object.__setattr__(self, "m_factors", m_factors)
        object.__setattr__(self, "vm_hw", vm_hw)
        object.__setattr__(self, "vm_dim", vm_dim)
        object.__setattr__(self, "alpha0", alpha0)
        object.__setattr__(self, "k_label", k_label)
        object.__setattr__(self, "m_simple_coords", m_simple_coords)


# g_label -> (system, m_label, m_factors, vm_hw, vm_dim, k_label,
# m_simple_coords); alpha0 comes from the system's highest root when a row
# is first read, so importing the package builds no root system for it
_QUAT_ROWS = {
    # Spin(4,3): M = SU(2) x Spin(3); both factors carry integer SU(2)
    # weights (m), (n); V_M = (1) (x) (2).  The split G2 sits inside via
    # SU_s(2) diagonal in SU_0(2) x Spin(3) and SU_l(2) equal to the
    # SU(2) factor; under K2 the tangent space is (3) (x) (1).
    "Spin(4,3)": (
        "B3", "SU(2)xSpin(3)", ("C1", "C1"),
        ((1,), (2,)), 6, "SU_0(2) x SU(2) x Spin(3)",
        ((2, -2, 0), (0, 0, 2)),
    ),
    # Spin(4,4): M = SU(2)^3.  Factor order (alpha, beta, gamma) pinned to
    # the simple roots e1-e2, e3+e4, e3-e4 so that the Spin(8) lift table
    # reproduces inf chars equal to lambda + rho.
    "Spin(4,4)": (
        "D4", "SU(2)^3", ("C1", "C1", "C1"),
        ((1,), (1,), (1,)), 8, "SU_0(2) x SU(2)^3",
        ((2, -2, 0, 0), (0, 0, 2, 2), (0, 0, 2, -2)),
    ),
    "E6_4": (
        "E6", "SU(6)", ("A5",),
        ((1, 1, 1, 0, 0, 0),), 20, "SU_0(2) x SU(6)",
        (None,),
    ),
    "E7_4": (
        "E7", "Spin(12)", ("D6",),
        ((HalfInt(1),) * 6,), 32, "SU_0(2) x Spin(12)",
        (None,),
    ),
    "E8_4": (
        "E8", "E7", ("E7",),
        ((0, 0, 0, 0, 0, 1, HalfInt(-1), HalfInt(1)),), 56, "SU_0(2) x E7",
        (None,),
    ),
    "F4_4": (
        "F4", "Sp(3)", ("C3",),
        ((1, 1, 1),), 14, "SU_0(2) x Sp(3)",
        (None,),
    ),
    # split G2: M is the SU(2) on the short simple root; V_M = (3)
    "G2_2": (
        "G2", "SU(2)", ("C1",),
        ((3,),), 4, "SU_0(2) x SU(2)",
        ((2, -2, 0),),
    ),
}


@lru_cache(maxsize=None)
def quaternionic_structure(g_label: str) -> QuaternionicStructure:
    """g_label's row of _QUAT_ROWS as a record, alpha0 the negated highest
    root; an unknown label raises ValueError on every call, since
    lru_cache caches no exception."""
    if g_label not in _QUAT_ROWS:
        raise ValueError(f"no quaternionic structure for {g_label!r}")
    system, m_label, m_factors, vm_hw, vm_dim, k_label, m_simple_coords = (
        _QUAT_ROWS[g_label]
    )
    alpha0 = Weight.from_twice(_neg(highest_root(system).twice()), system)
    return QuaternionicStructure(
        g_label, system, m_label, m_factors, vm_hw, vm_dim, alpha0, k_label,
        m_simple_coords,
    )
