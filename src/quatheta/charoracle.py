"""Brute-force character arithmetic used as ground truth.

The oracle computes the dominant character of an irreducible: its
dominant weights, found by walking down from the highest weight by
positive roots through dominant weights only (on Dynkin labels: t - alpha
is dominant iff each label of t is at least alpha's positive pairing
there), with multiplicities from Freudenthal's recursion.  Its sum over
each alpha-string stops at the string's first non-weight (alpha-strings
of weights are unbroken), and only one string per orbit of W_J on the
positive roots modulo sign is walked, weighted by the orbit's size, J
being the simple roots orthogonal to the weight (Moody-Patera, Bull. AMS
(N.S.) 7 (1982), 237-242): W_J fixes the weight, so the string sum is
W_J-invariant, and it is even on the roots of W_J, whose reflections fix
the weight too.  Full weight multisets are the Weyl orbits of those
weights, each walked down from its dominant weight layer by layer; they
are built only for the pushforward of a restriction along a projection
(Spin8>Spin7) and for the symmetric-power chain, which is the oracle's
reference for the K-type ledgers (the ledgers themselves never build a
level's weights).  An equal-rank restriction builds none: its
subgroup-dominant weights are the w mu, for mu a dominant weight and w a
minimal representative of a coset W_H w in W_G, and only those are
stripped.  Decompositions are
recovered by repeatedly stripping the dominant character of the top
remaining dominant weight; IsoDecomp(labels, twice_mults) keeps each
highest weight as a doubled tuple and builds Irreps only when a caller
reads .mults or .items() (IsoDecomp.from_json validates what it reads
as Irreps).  Every path is integer-only: doubled
coordinates throughout, with no Fraction intermediates.  Every root
system, the E series included, is in scope; QUATHETA_DIM_CAP bounds the
dimension of each irreducible computed.

Irreps of product groups are supported throughout: the group is a tuple
of labels and the highest weight a matching tuple of Weights.  A weight
of a product is stored as the concatenation of the factors' doubled
coordinate vectors, and _sys(labels) is the product's root data: its
Weyl dimension, chamber and lattice tests, dominant representatives and
orbits read it as they read one label's.  Characters are computed
factor by factor: a product irrep's dominant and full characters are
_product of its factors' cached ones, each factor's highest weight
sliced at the record's spans.
"""

from __future__ import annotations

import os
from functools import lru_cache
from operator import sub

from .rootdata import Weight, _Record, _add, _dot, _sub, _sys, _twice_json

DEFAULT_DIM_CAP = 20000


class OracleCapError(RuntimeError):
    """Raised when a character computation would exceed the dimension cap."""


def dim_cap() -> int:
    """Current oracle dimension cap (env QUATHETA_DIM_CAP overrides)."""
    raw = os.environ.get("QUATHETA_DIM_CAP")
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise ValueError(
            f"QUATHETA_DIM_CAP must be a positive integer, not {raw!r}"
        )
    return cap


def _check_dim(dim: int, cap: int) -> None:
    if dim > cap:
        raise OracleCapError(f"dim {dim} exceeds oracle cap {cap}")


def _as_tuple(x):
    return x if isinstance(x, tuple) else (x,)


class Irrep(_Record):
    """Irreducible representation labeled by a dominant highest weight.

    group: a root-system label, or a tuple of labels for products;
    hw: a Weight, or a tuple of Weights matching the group factors.
    Coordinates may be given as raw numbers; they are wrapped.
    """

    __slots__ = ("group", "hw")

    def __init__(self, group, hw):
        labels = _as_tuple(group)
        hws = (hw,) if isinstance(group, str) else hw
        if len(labels) != len(hws):
            raise ValueError("group/hw factor counts differ")
        fixed = []
        for lab, w in zip(labels, hws):
            if not isinstance(w, Weight):
                w = Weight(_as_tuple(w), lab)
            if w.system != lab:
                raise ValueError(f"weight system {w.system} != factor {lab}")
            d = _sys(lab)
            if len(w.coords) != d.dim:
                raise ValueError(f"{lab} weight needs {d.dim} coordinates")
            t = w.twice()
            if not d.in_chamber(t):
                raise ValueError(f"{w!r} is not dominant for {lab}")
            if not d.is_integral(t):
                why = (f"it must lie in {d.span}" if d.off_span(t)
                       else "its simple-coroot pairings must be integers")
                raise ValueError(
                    f"{w!r} is not in the weight lattice of {lab}: {why}"
                )
            fixed.append(w)
        object.__setattr__(self, "group", labels if len(labels) > 1 else labels[0])
        object.__setattr__(self, "hw", tuple(fixed) if len(fixed) > 1 else fixed[0])

    @property
    def labels(self) -> tuple:
        return _as_tuple(self.group)

    @property
    def hws(self) -> tuple:
        return _as_tuple(self.hw)

    def twice_concat(self) -> tuple:
        out = []
        for w in self.hws:
            out.extend(w.twice())
        return tuple(out)

    def __repr__(self):
        parts = [f"({', '.join(str(c) for c in w.coords)})" for w in self.hws]
        return f"Irrep[{'x'.join(self.labels)}]{' x '.join(parts)}"


def irrep(group, *hw) -> Irrep:
    """Convenience constructor: irrep("B3", 1, 0, 0) or
    irrep(("C1","C1"), (1,), (2,))."""
    if isinstance(group, str):
        if len(hw) == 1 and isinstance(hw[0], (tuple, list, Weight)):
            return Irrep(group, hw[0] if isinstance(hw[0], Weight) else tuple(hw[0]))
        return Irrep(group, tuple(hw))
    return Irrep(tuple(group), tuple(tuple(h) if not isinstance(h, Weight) else h for h in hw))


# ---------------------------------------------------------------------------
# character containers


class CharMultiset(_Record):
    """Weight multiset of a (virtual sum of) representations.

    mults maps concatenated doubled coordinates to positive ints.
    """

    __slots__ = ("labels", "mults")

    def __init__(self, labels: tuple, mults: dict):
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "mults", mults)

    def mass(self) -> int:
        return sum(self.mults.values())


class IsoDecomp(_Record):
    """Multiplicities of irreducibles in a completely reducible module.

    labels: the group's factor labels; twice_mults maps a concatenated
    doubled highest weight to its positive multiplicity.  .mults and
    .items() build the Irreps each time they are read.
    """

    __slots__ = ("labels", "twice_mults")

    def __init__(self, labels: tuple, twice_mults: dict):
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "twice_mults", twice_mults)

    @property
    def mults(self) -> dict:
        return dict(self.items())

    def items(self):
        return [(_irrep_twice(self.labels, t), m)
                for t, m in sorted(self.twice_mults.items())]

    def dimension(self) -> int:
        return sum(m * _dim_single(_sys(self.labels).label, t)
                   for t, m in self.twice_mults.items())

    def to_json(self):
        if not self.twice_mults:  # reads no root data
            return []
        spans = _sys(self.labels).spans
        out = []
        for t, m in sorted(self.twice_mults.items()):
            hw = [_twice_json(t[a:b]) for _, a, b in spans]
            out.append({"hw": hw[0] if len(hw) == 1 else hw, "mult": m})
        return out

    @staticmethod
    def from_json(data, labels: tuple) -> IsoDecomp:
        """The decomposition to_json wrote, for the group of labels.

        Each entry must be {"hw": ..., "mult": m}, m a positive int, with
        an hw not read before that is valid as an Irrep: a list of
        coordinates, or for a product one such list per factor.
        Anything else raises ValueError naming the entry.
        """
        twice_mults = {}
        for entry in data:
            m = entry.get("mult") if isinstance(entry, dict) else None
            if type(m) is not int or m < 1 or entry.keys() != {"hw", "mult"}:
                raise ValueError(
                    f"entry {entry!r} needs an hw and a positive integer mult"
                )
            # one-factor hws are written flat
            hws = [entry["hw"]] if len(labels) == 1 else entry["hw"]
            if not (isinstance(hws, list)
                    and all(isinstance(hw, list) for hw in hws)):
                raise ValueError(
                    f"entry {entry!r}: hw must be a list per factor")
            try:
                t = Irrep(labels, tuple(map(tuple, hws))).twice_concat()
            except (TypeError, ValueError) as exc:
                raise ValueError(f"entry {entry!r}: {exc}") from None
            if t in twice_mults:
                raise ValueError(f"entry {entry!r} repeats a highest weight")
            twice_mults[t] = m
        return IsoDecomp(labels, twice_mults)


def _irrep_twice(labels, t: tuple) -> Irrep:
    """The (validated) Irrep of a concatenated doubled highest weight of
    the group of labels (a label or a tuple of them)."""
    spans = _sys(labels).spans
    return Irrep(
        tuple(lab for lab, _, _ in spans),
        tuple(Weight.from_twice(t[a:b], lab) for lab, a, b in spans),
    )


# ---------------------------------------------------------------------------
# Weyl dimension formula


@lru_cache(maxsize=None)
def _dim_single(label, thw: tuple) -> int:
    """Weyl's dimension formula, for a label or a product of labels;
    callers pass the record's own label, so that a one-label tuple and
    its label share entries."""
    d = _sys(label)
    lam_rho = _add(thw, d.rho2)
    num = den = 1
    for a in d.pos:
        num *= _dot(lam_rho, a)
        den *= _dot(d.rho2, a)
    q, r = divmod(num, den)
    if r:
        raise AssertionError("Weyl dimension not an integer")
    return q


def weyl_dim(r: Irrep) -> int:
    return _dim_single(_sys(r.labels).label, r.twice_concat())


# ---------------------------------------------------------------------------
# Freudenthal weight multiplicities


@lru_cache(maxsize=None)
def _root_table(label: str) -> tuple:
    """(steps, moves): tables over the positive roots pos[k] of label,
    built on first use.

    steps[k] = (pos[k], |pos[k]|^2, its simple-coroot pairings, and the
    (i, p) among them with p > 0): a dominant t with Dynkin labels c has
    t - pos[k] dominant iff c[i] >= p for each such (i, p).  moves[j][k]
    is the index of s_j(pos[k]) up to sign: s_j permutes the positive
    roots other than alpha_j and negates alpha_j, which it keeps.
    """
    d = _sys(label)
    index = {a: k for k, a in enumerate(d.pos)}
    steps = tuple(
        (a, _dot(a, a), c, tuple((i, p) for i, p in enumerate(c) if p > 0))
        for a, c in zip(d.pos, d.pairing)
    )
    moves = tuple(
        tuple(k if a == s else index[tuple(x - c[j] * y for x, y in zip(a, s))]
              for k, (a, c) in enumerate(zip(d.pos, d.pairing)))
        for j, s in enumerate(d.simple)
    )
    return steps, moves


@lru_cache(maxsize=None)
def _string_orbits(label: str, zeros: tuple) -> tuple:
    """((k, size), ...): the orbits of W_J on the positive roots modulo
    sign, J the simple roots indexed by zeros, each as its first index k
    into pos and its size, in the order of those indices."""
    moves = [_root_table(label)[1][j] for j in zeros]
    out, seen = [], set()
    for k in range(len(_sys(label).pos)):
        if k in seen:
            continue
        orbit, stack = {k}, [k]
        while stack:
            u = stack.pop()
            for move in moves:
                v = move[u]
                if v not in orbit:
                    orbit.add(v)
                    stack.append(v)
        seen |= orbit
        out.append((k, len(orbit)))
    return tuple(out)


@lru_cache(maxsize=None)
def _dominant_char(label: str, thw: tuple) -> dict:
    """Dominant part {doubled coords: mult} of one irreducible's character.

    The dominant weights are walked on Dynkin labels: t - alpha is
    dominant iff each label of t is at least alpha's positive pairings.
    Freudenthal's sum over the positive roots alpha of
    f(alpha) = sum_(k >= 1) m(mu + k alpha) (mu + k alpha, alpha)
    is taken over one alpha per orbit of W_J on the positive roots modulo
    sign, weighted by the orbit's size, where J is the set of simple
    roots orthogonal to mu (Moody-Patera, Bull. AMS (N.S.) 7 (1982),
    237-242).  This is exact: W_J fixes mu and m is W-invariant, so
    f(w alpha) = f(alpha) for w in W_J; and f(-alpha) = f(alpha) for
    alpha in the span of J, because s_alpha fixes mu.
    """
    d = _sys(label)
    steps, _ = _root_table(label)
    top = []
    for a, n in zip(d.simple, d.simple_norm):
        c, r = divmod(2 * _dot(thw, a), n)
        if r:
            raise AssertionError("highest weight off the weight lattice")
        top.append(c)
    # the dominant weights under thw: any two dominant mu <= lambda are
    # joined by a chain of dominant weights whose steps are positive roots
    # (Stembridge, Adv. Math. 136 (1998), Cor. 2.7)
    labels = {thw: tuple(top)}
    # a set, not labels' keys: ties in the stable sort below keep the
    # set's iteration order, which fixes the order of the returned dict
    found = {thw}
    frontier = [thw]
    while frontier:
        nxt = []
        for t in frontier:
            c = labels[t]
            for a, _, pairing, drops in steps:
                for i, p in drops:
                    if c[i] < p:
                        break
                else:
                    v = _sub(t, a)
                    if v not in found:
                        found.add(v)
                        labels[v] = tuple(map(sub, c, pairing))
                        nxt.append(v)
        frontier = nxt
    dom = sorted(found, key=lambda t: -_dot(t, d.rho2))
    lam_rho = _add(thw, d.rho2)
    top_norm = _dot(lam_rho, lam_rho)
    mult = {thw: 1}
    dominant = {}  # this call's memo of d.dominant_twice
    for mu in dom:
        if mu == thw:
            continue
        zeros = tuple(i for i, x in enumerate(labels[mu]) if not x)
        total = 0
        # the alpha-string through the weight mu is unbroken (Humphreys,
        # Lie Algebras, 21.3), and every dominant weight above mu already
        # has its multiplicity: the string ends at the first miss
        for k, size in _string_orbits(label, zeros):
            a, norm, _, _ = steps[k]
            v = _add(mu, a)
            p = _dot(v, a)
            f = 0
            while True:
                u = dominant.get(v)
                if u is None:
                    u = dominant[v] = d.dominant_twice(v)
                m = mult.get(u)
                if not m:
                    break
                f += m * p
                p += norm
                v = _add(v, a)
            total += size * f
        mu_rho = _add(mu, d.rho2)
        denom = top_norm - _dot(mu_rho, mu_rho)
        if denom <= 0 or (2 * total) % denom:
            raise AssertionError("Freudenthal recursion failed")
        mult[mu] = (2 * total) // denom
    return mult


@lru_cache(maxsize=None)
def _char_single(label: str, thw: tuple) -> dict:
    """Full weight multiset {doubled coords: mult} of one irreducible:
    the Weyl orbits of its dominant weights."""
    d = _sys(label)
    dim = _dim_single(label, thw)
    out = {
        u: m
        for mu, m in _dominant_char(label, thw).items()
        for u in d.orbit(mu, dim)
    }
    if sum(out.values()) != dim:
        raise AssertionError("character mass != Weyl dimension")
    return out


def _product(factors) -> dict:
    """Weight dict of a product irrep from its factors' weight dicts; for
    one factor, that factor's dict itself, not a copy."""
    factors = iter(factors)
    mults = next(factors)
    for fac in factors:
        mults = {
            t1 + t2: m1 * m2
            for t1, m1 in mults.items()
            for t2, m2 in fac.items()
        }
    return mults


def char_weights(r: Irrep) -> CharMultiset:
    """Weight multiset of an irrep (or product irrep), refused above
    dim_cap()."""
    _check_dim(weyl_dim(r), dim_cap())
    mults = _product(
        _char_single(lab, w.twice()) for lab, w in zip(r.labels, r.hws)
    )
    # the caller owns mults: never hand out _char_single's cached dict
    return CharMultiset(r.labels, dict(mults) if len(r.labels) == 1 else mults)


# ---------------------------------------------------------------------------
# dominant stripping


def strip_dominant(c: CharMultiset) -> IsoDecomp:
    """Decompose a genuine character into irreducibles.

    A Weyl-invariant function is fixed by its dominant part, so only the
    dominant keys are stripped: repeatedly subtract the dominant
    character of the remaining dominant weight of greatest rho-pairing
    (lexicographic tiebreak).  Input that is not a character raises:
    a key whose multiplicity differs from its dominant representative's,
    a negative residual multiplicity, or a mass that the stripped
    irreducibles do not account for (an incomplete orbit).  A top off
    the weight lattice raises Irrep's error; one above dim_cap() raises
    OracleCapError.

    The dominant keys go to _strip_tops, the one stripping kernel.  Tops
    stay doubled tuples; no Irrep is built.
    """
    d = _sys(c.labels)
    rem = {}
    moved = []
    for t, m in c.mults.items():
        if m:
            u = d.dominant_twice(t)
            if u == t:
                rem[t] = m
            else:
                moved.append((u, m))
    if any(rem.get(u) != m for u, m in moved):
        raise AssertionError("character is not Weyl-invariant")
    out, total = _strip_tops(d, rem)
    if total != sum(c.mults.values()):
        raise AssertionError("stripping left a residue with no dominant key")
    return IsoDecomp(c.labels, out)


def _strip_tops(d, rem: dict) -> tuple:
    """Strip {dominant key: mult} of the root data d in place; returns
    the stripped {top: mult} and the total dimension it accounts for.

    The keys are ordered once, by rho-pairing with a lexicographic
    tiebreak, and each step takes the first still present: stripping only
    removes keys (one it would add goes negative and raises).  A top off
    the weight lattice raises Irrep's error; one above dim_cap() raises
    OracleCapError.
    """
    tops = sorted(rem, key=lambda t: (_dot(t, d.rho2), t), reverse=True)
    cap = dim_cap()
    out = {}
    total = 0
    for top in tops:
        m = rem.get(top)
        if m is None:
            continue
        if m < 0:
            raise AssertionError("negative multiplicity while stripping")
        if not d.is_integral(top):
            _irrep_twice(d.label, top)  # raises Irrep's lattice error
        dim = _dim_single(d.label, top)
        _check_dim(dim, cap)
        out[top] = m
        total += m * dim
        dom = _product(_dominant_char(lab, top[a:b]) for lab, a, b in d.spans)
        for t, fm in dom.items():
            nm = rem.get(t, 0) - m * fm
            if nm < 0:
                raise AssertionError("negative multiplicity while stripping")
            if nm:
                rem[t] = nm
            else:
                rem.pop(t, None)
    return out, total


# ---------------------------------------------------------------------------
# embeddings and restriction


class EmbeddingMap(_Record):
    """Cartan-coordinate map of a subgroup inclusion: a projection.

    coords lists, for each concatenated target coordinate, the source
    coordinate it keeps; the map is applied to doubled coordinate
    vectors, so half-integers stay half-integers.  When coords keeps
    every source coordinate in order and each target factor's positive
    roots, in its slice, are positive roots of the source, the inclusion
    is equal rank and restrict takes the coset path (_coset_walk);
    otherwise it pushes the full weight multiset forward.
    """

    __slots__ = ("name", "source", "targets", "coords")

    def __init__(self, name: str, source: str, targets: tuple, coords: tuple):
        # per factor: EMBEDDINGS is built on import, and a product record
        # is first needed by a restriction
        ntarget = sum(_sys(lab).dim for lab in targets)
        if len(coords) != ntarget:
            raise ValueError(f"{name}: need {ntarget} coordinates")
        nsource = _sys(source).dim
        if any(not 0 <= i < nsource for i in coords):
            raise ValueError(
                f"{name}: coordinates must lie in range({nsource})"
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "coords", coords)

    def apply(self, tvec: tuple) -> tuple:
        return tuple(tvec[i] for i in self.coords)


def _mk_embeddings():
    table = {}

    def add(name, source, targets, coords):
        table[name] = EmbeddingMap(name, source, tuple(targets), tuple(coords))

    # split-last embeddings behind the two-step branching rules
    add("Sp2>Sp1xSp1", "C2", ("C1", "C1"), [0, 1])
    add("Sp3>Sp2xSp1", "C3", ("C2", "C1"), [0, 1, 2])
    add("Spin5>Spin3xSpin2", "B2", ("B1", "Spin2"), [0, 1])
    add("Spin7>Spin5xSpin2", "B3", ("B2", "Spin2"), [0, 1, 2])
    add("Spin6>Spin4xSpin2", "D3", ("D2", "Spin2"), [0, 1, 2])
    add("Spin8>Spin6xSpin2", "D4", ("D3", "Spin2"), [0, 1, 2, 3])
    # one-step restrictions: Spin(9) > Spin(8), the oracle the rank-8
    # see-saw needs for [pi|Spin(8) : tau], and Spin(8) > Spin(7), which
    # the oracle suite restricts along
    add("Spin9>Spin8", "B4", ("D4",), [0, 1, 2, 3])
    add("Spin8>Spin7", "D4", ("B3",), [0, 1, 2])
    # the oracle for the F4 -> Spin(9) closed form
    add("F4>B4", "F4", ("B4",), [0, 1, 2, 3])
    return table


EMBEDDINGS = _mk_embeddings()


def embedding(name: str) -> EmbeddingMap:
    try:
        return EMBEDDINGS[name]
    except KeyError:
        raise ValueError(f"unknown embedding {name!r}") from None


@lru_cache(maxsize=None)
def _coset_walk(e: EmbeddingMap):
    """The walk through the minimal representatives w_0 = 1, w_1, ... of
    the cosets W_H w in W_G for an equal-rank embedding, as steps, or
    None when e is not equal rank.

    The representatives are the w with w rho_G in the H-chamber, one per
    coset (Humphreys, Reflection Groups and Coxeter Groups, 1.10).  They
    are found by a gallery walk that never leaves the H-chamber: it is
    convex, so a minimal gallery from the G-chamber to any G-chamber
    inside it stays inside.  Crossing the i-th wall of the chamber of w
    goes to w s_i, with w s_i rho = w rho - w(alpha_i).  steps[k - 1] =
    (j, i, w_j alpha_i), j < k, records that w_k = w_j s_i, so for any
    mu, w_k mu = w_j mu - <mu, alpha_i^vee> w_j alpha_i.
    """
    g = _sys(e.source)
    if e.coords != tuple(range(g.dim)):
        return None
    h = _sys(e.targets)
    if not set(h.pos) <= set(g.pos):
        return None
    steps = []
    layer = [(0, g.rho2, g.simple)]  # (index, w rho, w alpha_1..w alpha_r)
    seen = {g.rho2}
    while layer:
        nxt = []
        for k, v, images in layer:
            for i, img in enumerate(images):
                u = _sub(v, img)
                if u in seen or not h.in_chamber(u):
                    continue
                seen.add(u)
                moved = tuple(tuple(x - c[i] * y for x, y in zip(im, img))
                              for im, c in zip(images, g.cartan))
                steps.append((k, i, img))
                nxt.append((len(steps), u, moved))
        layer = nxt
    return tuple(steps)


def _restrict_cosets(r: Irrep, e: EmbeddingMap, steps: tuple) -> IsoDecomp:
    """Equal-rank restriction: the H-dominant weights of the restriction
    are the distinct w mu, w a coset representative, over the dominant
    weights mu of r; strip them.  No orbit is walked.  r is refused above
    dim_cap() first, and the stripped total must be r's dimension."""
    dim = weyl_dim(r)
    _check_dim(dim, dim_cap())
    g = _sys(e.source)
    simple = tuple(zip(g.simple, g.simple_norm))
    rem = {}
    for mu, m in _dominant_char(e.source, r.twice_concat()).items():
        pairing = [2 * _dot(mu, a) // n for a, n in simple]
        points = [mu]
        for j, i, img in steps:
            c = pairing[i]
            v = points[j]
            points.append(tuple(x - c * y for x, y in zip(v, img)) if c else v)
        for u in set(points):
            rem[u] = rem.get(u, 0) + m
    out, total = _strip_tops(_sys(e.targets), rem)
    if total != dim:
        raise AssertionError("restriction lost dimension")
    return IsoDecomp(e.targets, out)


def _restrict_pushforward(r: Irrep, e: EmbeddingMap) -> IsoDecomp:
    """Restriction by pushing the full weight multiset forward and
    stripping it: the path for projections, and the reference for the
    coset path."""
    src = char_weights(r)
    pushed = {}
    for t, m in src.mults.items():
        u = e.apply(t)
        pushed[u] = pushed.get(u, 0) + m
    return strip_dominant(CharMultiset(e.targets, pushed))


def restrict(r: Irrep, e: EmbeddingMap) -> IsoDecomp:
    """Restriction of an irrep along an embedding.

    An equal-rank embedding strips only the H-dominant points of each
    dominant weight's orbit, found through the minimal representatives
    of the cosets W_H w in W_G; no weight multiset is built, so
    _restrict_cosets checks the stripped total against r's dimension.  A
    projection (Spin8>Spin7) pushes the full weight multiset, whose mass
    is r's dimension, forward and strips it: strip_dominant's mass check
    is the same check.  Either way r is refused above dim_cap() first.
    """
    if not isinstance(r.group, str) or e.source != r.group:
        raise ValueError(f"embedding {e.name} does not start at {r.group}")
    steps = _coset_walk(e)
    if steps is None:
        return _restrict_pushforward(r, e)
    return _restrict_cosets(r, e, steps)
