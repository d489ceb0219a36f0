import copy
import itertools
import pickle
import random
import re
import sys
import tracemalloc
from fractions import Fraction
from operator import mul

import pytest

from quatheta.aqmodules import AqCase, theta_unitary
from quatheta.branchrules import restrict_e7_to_su2_spin12
from quatheta.charoracle import (
    DEFAULT_DIM_CAP,
    EMBEDDINGS,
    _dim_single,
    _dominant_char,
    _string_orbits,
)
from quatheta.rootdata import (
    _QUAT_ROWS,
    _SIMPLE,
    HalfInt,
    Weight,
    _as_int,
    _add,
    _dot,
    _half,
    _neg,
    _sub,
    _sys,
    dominant_representative,
    highest_root,
    highest_root_coefficients,
    quaternionic_structure,
)
from quatheta.thetamaps import (
    infchar_crosscheck,
    theta_e6_torus,
    theta_e6_u2,
    theta_e7,
    theta_f4,
)


class TestHalfInt:
    def test_constructor_takes_doubled_value(self):
        assert HalfInt(8) == 4
        assert HalfInt(1) == Fraction(1, 2)
        assert HalfInt(-3) == Fraction(-3, 2)

    def test_of_takes_actual_value(self):
        assert HalfInt.of(4) == 4
        assert HalfInt.of(Fraction(3, 2)).twice == 3
        assert HalfInt.of(HalfInt(3)) == HalfInt(3)
        with pytest.raises(ValueError):
            HalfInt.of(Fraction(1, 3))

    def test_parse(self):
        assert HalfInt.parse("3/2").twice == 3
        assert HalfInt.parse("-5/2").twice == -5
        assert HalfInt.parse("4") == 4
        with pytest.raises(ValueError):
            HalfInt.parse("1/3")

    @pytest.mark.parametrize("literal, twice", [
        ("3/2", 3), (" -5 / 2 ", -5), ("4/2", 4), ("+7", 14), (" 0 ", 0),
    ])
    def test_parse_accepts(self, literal, twice):
        assert HalfInt.parse(literal).twice == twice

    @pytest.mark.parametrize("literal", [
        "3/2/2", "/2", "", "  ", "3/", "1/3", "3//2", "1/2.0", "1.5", "x",
        "3/-2",
    ])
    def test_parse_refuses_with_one_message(self, literal):
        with pytest.raises(ValueError) as info:
            HalfInt.parse(literal)
        message = f"bad half-integer literal {literal.strip()!r}"
        assert str(info.value) == message

    def test_parse_accepts_what_the_split_rule_accepted(self):
        def split_rule(s):  # the rule before every refusal had one message
            s = s.strip()
            if "/" in s:
                num, den = s.split("/")
                if den.strip() != "2":
                    raise ValueError
                return int(num)
            return 2 * int(s)

        tokens = ("", " ", "1", "-3", "+", "/", "2", "4", "x", ".5", "_0")
        for parts in itertools.product(tokens, repeat=4):
            literal = "".join(parts)
            try:
                want = split_rule(literal)
            except ValueError:
                want = None
            try:
                got = HalfInt.parse(literal).twice
            except ValueError:
                got = None
            assert got == want, literal

    def test_str(self):
        assert str(HalfInt.of(3)) == "3"
        assert str(HalfInt(3)) == "3/2"
        assert str(HalfInt(-1)) == "-1/2"

    def test_no_arithmetic(self):
        # HalfInt is parsed, compared, hashed and printed; sums and
        # multiples are computed on the doubled integers
        for op in (lambda a: a + 1, lambda a: 1 + a, lambda a: a - a,
                   lambda a: -a, lambda a: abs(a), lambda a: 2 * a):
            with pytest.raises(TypeError):
                op(HalfInt(3))

    def test_no_halfint_product(self):
        with pytest.raises(TypeError):
            HalfInt(3) * HalfInt(3)

    def test_comparisons_and_hash(self):
        assert HalfInt(1) < 1 < HalfInt(3)
        assert HalfInt(1) <= HalfInt(1) <= 1 and not HalfInt(3) <= 1
        assert HalfInt(3) >= HalfInt(3) >= 1 and not HalfInt(1) >= 1
        assert hash(HalfInt.of(2)) == hash(2)
        assert hash(HalfInt(3)) == hash(Fraction(3, 2))
        assert len({HalfInt.of(2), 2, Fraction(2)}) == 1

    def test_hash_equals_fraction_hash(self):
        for t in range(-5000, 5001):
            for x in (HalfInt(t), _half(t)):
                assert hash(x) == hash(Fraction(t, 2)), t

    @pytest.mark.parametrize("t", [
        2**61 + 1, 2**61 - 1, -(2**61 + 1), -(2**61 - 1),
        2**70 + 3, -(2**70 + 3), 2**70 + 2, -(2**70 + 2),
    ])
    def test_hash_past_the_modulus(self, t):
        for x in (HalfInt(t), _half(t)):
            assert hash(x) == hash(Fraction(t, 2))

    def test_hash_never_minus_one(self):
        # for |t| = M + 2, M the hash modulus, |t| / 2 is 1 modulo M, so
        # the signed hash of -|t| would be -1, which CPython reserves
        t = -(sys.hash_info.modulus + 2)
        assert hash(HalfInt(t)) == hash(Fraction(t, 2)) == -2
        assert hash(_half(t)) == -2
        assert hash(HalfInt(-2)) == hash(-1) == -2

    def test_mixed_dict_keys(self):
        for t in (-7, -2, -1, 0, 1, 4, 9, 2**61 - 1, -(2**70 + 3)):
            frac = Fraction(t, 2)
            for x in (HalfInt(t), _half(t)):
                assert {x: t}[frac] == t and {frac: t}[x] == t
                if t % 2 == 0:
                    assert {x: t}[t // 2] == t and {t // 2: t}[x] == t

    def test_equality_agrees_with_hash(self):
        # strings are read by of/parse, not by comparisons: a HalfInt
        # equal to "1/2" would have to hash like it
        assert HalfInt(1) != "1/2"
        assert HalfInt(1) not in {"1/2"}
        assert "4" != HalfInt(8)
        for other in (Fraction(1, 2), Fraction(2), 2, HalfInt(1), HalfInt(4)):
            for x in (HalfInt(1), HalfInt(4), _half(1), _half(4)):
                if x == other:
                    assert hash(x) == hash(other)
                    assert other in {x} and x in {other}
        assert HalfInt.of("1/2") == HalfInt.parse("1/2") == HalfInt(1)
        with pytest.raises(TypeError):
            HalfInt(1) < "1"

    def test_interned_values_are_shared(self):
        for t in (-7, -1, 0, 3, 8, 2**70 + 3):
            assert _half(t) is _half(t)
            assert _half(t) == HalfInt(t) and _half(t) is not HalfInt(t)
        assert HalfInt.of(4) is _half(8)
        assert HalfInt.of(Fraction(-3, 2)) is _half(-3)
        assert HalfInt.of("-3/2") is HalfInt.parse(" -3 / 2 ") is _half(-3)
        assert Weight.from_twice((3, 1), "B2").coords[0] is _half(3)

    def test_interned_value_round_trips(self):
        for t in (-3, 0, 4):
            x = _half(t)
            for copied in (copy.copy(x), copy.deepcopy(x),
                           pickle.loads(pickle.dumps(x))):
                assert copied == x and hash(copied) == hash(x)
                assert type(copied) is HalfInt


def test_as_int_keeps_integral_values():
    for x in (3, Fraction(6, 2), 3.0, HalfInt(6)):
        assert _as_int(x) == 3 and type(_as_int(x)) is int


# each call succeeds on the truncated input, so only the refusal of the
# fractional part makes it raise
@pytest.mark.parametrize("call", [
    lambda: AqCase("G2", "I", (2.5, 1, -3.5)),
    lambda: AqCase("PU21", "I", (Fraction(7, 2), 1, Fraction(-9, 2))),
    lambda: theta_e6_torus(1.5, -1.5, 0),
    lambda: theta_e6_u2(Fraction(5, 2), 1),
    lambda: theta_e7(Fraction(5, 2), 1, 1),
    lambda: theta_e7(2, 1, 0.5),
    lambda: theta_f4(2.5),
    lambda: theta_unitary("wall", 2.5, (3, 3)),
    lambda: theta_unitary("wall", 2, (3.5, 3)),
    lambda: theta_unitary("regular", (2.5, 1, -3.5), (3, 2)),
    lambda: infchar_crosscheck("tmain", (2.5, 1)),
    lambda: infchar_crosscheck("e7", (2, 1, 1.5)),
    lambda: infchar_crosscheck("f4", 2.5),
    lambda: infchar_crosscheck("f4", (Fraction(5, 2),)),
    lambda: infchar_crosscheck("t161", (1.5, 1)),
    lambda: restrict_e7_to_su2_spin12(1.5),
])
def test_non_integral_parameters_are_refused(call):
    with pytest.raises(ValueError, match="is not an integer"):
        call()


class TestWeight:
    def test_coercion_and_twice(self):
        w = Weight((2, Fraction(3, 2), -1), "B3")
        assert w.twice() == (4, 3, -2)
        assert Weight.from_twice((4, 3, -2), "B3") == w

    def test_json_round_trip(self):
        w = Weight((2, HalfInt(3), -1), "B3")
        data = w.to_json()
        assert data == [2, "3/2", -1]
        assert Weight.from_json(data, "B3") == w

    def test_equality_is_system_aware(self):
        assert Weight((1, 0, 0), "B3") == Weight((1, 0, 0), "B3")
        assert Weight((1, 0, 0), "B3") != Weight((1, 0, 0), "C3")


# ambient dim, rank, number of positive roots, Weyl order, doubled rho
ROOT_SYSTEM_TABLE = {
    "A1": (2, 1, 1, 2, (1, -1)),
    "A2": (3, 2, 3, 6, (2, 0, -2)),
    "A3": (4, 3, 6, 24, (3, 1, -1, -3)),
    "A5": (6, 5, 15, 720, (5, 3, 1, -1, -3, -5)),
    "B1": (1, 1, 1, 2, (1,)),
    "B2": (2, 2, 4, 8, (3, 1)),
    "B3": (3, 3, 9, 48, (5, 3, 1)),
    "B4": (4, 4, 16, 384, (7, 5, 3, 1)),
    "C1": (1, 1, 1, 2, (2,)),
    "C2": (2, 2, 4, 8, (4, 2)),
    "C3": (3, 3, 9, 48, (6, 4, 2)),
    "D2": (2, 2, 2, 4, (2, 0)),
    "D3": (3, 3, 6, 24, (4, 2, 0)),
    "D4": (4, 4, 12, 192, (6, 4, 2, 0)),
    "D6": (6, 6, 30, 23040, (10, 8, 6, 4, 2, 0)),
    "E6": (8, 6, 36, 51840, (0, 2, 4, 6, 8, -8, -8, 8)),
    "E7": (8, 7, 63, 2903040, (0, 2, 4, 6, 8, 10, -17, 17)),
    "E8": (8, 8, 120, 696729600, (0, 2, 4, 6, 8, 10, 12, 46)),
    "F4": (4, 4, 24, 1152, (11, 5, 3, 1)),
    "G2": (3, 2, 6, 12, (4, 2, -6)),
}


@pytest.mark.parametrize("label", sorted(ROOT_SYSTEM_TABLE))
def test_root_system_shape(label):
    dim, rank, npos, worder, rho2 = ROOT_SYSTEM_TABLE[label]
    d = _sys(label)
    assert d.dim == dim
    assert d.rank == rank
    assert len(d.simple) == rank
    assert len(d.pos) == npos
    if worder <= 23040:
        # rho is regular: W acts simply transitively on its orbit
        assert len(d.orbit(d.rho2, worder)) == worder
    assert d.rho2 == rho2


@pytest.mark.parametrize("label", sorted(ROOT_SYSTEM_TABLE))
def test_rho_is_half_sum_of_positive_roots(label):
    d = _sys(label)
    total = [0] * d.dim
    for r in d.pos:
        for i, c in enumerate(r):
            total[i] += c
    assert tuple(c // 2 for c in total) == d.rho2
    assert all(c % 2 == 0 for c in total)


def _standard_npos(label):
    """|positive roots| of a simple type, from the type alone."""
    exceptional = {"G2": 6, "F4": 24, "E6": 36, "E7": 63, "E8": 120}
    if label in exceptional:
        return exceptional[label]
    fam, n = label[0], int(label[1:])
    return {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1)}[fam]


@pytest.mark.parametrize("label", sorted(ROOT_SYSTEM_TABLE))
def test_positive_root_closure(label):
    # as in any positive system: every simple root is positive, s_i
    # permutes the other positive roots, and the count fits the type
    d = _sys(label)
    pos = set(d.pos)
    assert len(pos) == len(d.pos) == _standard_npos(label)
    for i, a in enumerate(d.simple):
        assert a in pos
        rest = pos - {a}
        assert {d.reflect_simple(b, i) for b in rest} == rest


def _descend(d, t):
    """Dominant representative by the simple-reflection walk."""
    while True:
        i = next((i for i, a in enumerate(d.simple)
                  if sum(x * y for x, y in zip(t, a)) < 0), None)
        if i is None:
            return t
        t = d.reflect_simple(t, i)


def _closed_form_orbit(label, dom):
    """The Weyl orbit of dom from the group's description as signed
    permutations: permutations (A), signed permutations (B, C), those
    with an even number of sign changes (D), permutations and -1 on the
    sum-zero plane (G2); Spin2's Weyl group is trivial."""
    if label == "Spin2":
        return {dom}
    perms = set(itertools.permutations(dom))
    if label[0] == "A":
        return perms
    if label == "G2":
        return perms | {_neg(t) for t in perms}
    out = set()
    for signs in itertools.product((1, -1), repeat=len(dom)):
        if label[0] == "D" and signs.count(-1) % 2:
            continue
        out |= {tuple(map(mul, signs, t)) for t in perms}
    return out


def _orbit_inputs(label):
    """rho, 0, dominant weights with zero and repeated entries, the
    half-integral spinor weights, and their flips with an odd number of
    minus signs: those of them dominant and in the weight lattice."""
    d = _sys(label)
    if label == "G2":
        return [d.rho2, (0, 0, 0), (2, 0, -2), (2, 2, -4), (4, 2, -6)]
    n = d.dim
    base = [(0,), (2,), (2, 2), (4, 2, 2), (4, 4, 2, 2), (1,) * n,
            (3,) + (1,) * n, (3, 3, 1) + (1,) * n]
    base = [(t + (0,) * n)[:n] for t in base]
    cands = [d.rho2] + base + [t[:-1] + (-t[-1],) for t in base]
    return [t for t in dict.fromkeys(cands)
            if d.in_chamber(t) and d.is_integral(t)]


@pytest.mark.parametrize(
    "label",
    sorted(set(ROOT_SYSTEM_TABLE) - {"F4", "E6", "E7", "E8"}) + ["Spin2"],
)
def test_closed_form_orbit_matches_walk(label):
    # orbit walks by simple reflections; the closed form uses none
    d = _sys(label)
    inputs = _orbit_inputs(label)
    assert len(inputs) >= 3
    if label[0] in "BD" and label != "D2":
        assert any(t[-1] % 2 for t in inputs)  # spinor weights
    if label[0] == "D":
        assert any(t[-1] < 0 for t in inputs)  # odd number of minus signs
    for dom in inputs:
        orbit = d.orbit(dom, 10 ** 6)
        assert len(orbit) == len(set(orbit))
        assert set(orbit) == _closed_form_orbit(label, dom)


def test_orbit_refusal_stops_early():
    # the D6 orbit of rho has 23040 elements; a refusal at 100 builds
    # about 100 of them
    d = _sys("D6")
    with pytest.raises(ValueError, match="orbit too large"):
        d.orbit(d.rho2, 23039)

    def peak(max_size):
        tracemalloc.start()
        try:
            d.orbit(d.rho2, max_size)
        except ValueError:
            pass
        size = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return size

    with pytest.raises(ValueError, match="orbit too large"):
        d.orbit(d.rho2, 100)
    assert 50 * peak(100) < peak(23040)


# ---------------------------------------------------------------------------
# product records against the per-factor reference


def _ref_spans(labels):
    """(label, start, stop) of each factor's slice, factor by factor."""
    out, i = [], 0
    for lab in labels:
        n = _sys(lab).dim
        out.append((lab, i, i + n))
        i += n
    return tuple(out)


def _ref_dominant(spans, t):
    """Each factor's dominant representative of its slice."""
    u = ()
    for lab, a, b in spans:
        u += _sys(lab).dominant_twice(t[a:b])
    return u


def _ref_sign_and_chamber(spans, v):
    """The factors' (sign, chamber) answers, multiplied and concatenated;
    None when any slice is singular."""
    sign, top = 1, ()
    for lab, a, b in spans:
        hit = _sys(lab).sign_and_chamber(v[a:b])
        if hit is None:
            return None
        sign *= hit[0]
        top += hit[1]
    return sign, top


def _ref_dim(spans, t):
    """The product of the factors' Weyl formulas on their slices."""
    n = 1
    for lab, a, b in spans:
        n *= _dim_single(lab, t[a:b])
    return n


# every multi-factor group the package names: the targets of the pinned
# embeddings and the factors of M in the quaternionic rows
PRODUCT_LABELS = sorted(
    labels
    for labels in {e.targets for e in EMBEDDINGS.values()}
    | {row[2] for row in _QUAT_ROWS.values()}
    if len(labels) > 1
)


def test_product_labels_cover_the_package():
    assert PRODUCT_LABELS == [
        ("B1", "Spin2"), ("B2", "Spin2"), ("C1", "C1"), ("C1", "C1", "C1"),
        ("C2", "C1"), ("D2", "Spin2"), ("D3", "Spin2"),
    ]


@pytest.mark.parametrize("labels", PRODUCT_LABELS, ids="x".join)
def test_product_record_matches_its_factors(labels):
    d, spans = _sys(labels), _ref_spans(labels)
    factors = [_sys(lab) for lab in labels]
    assert d.label == labels
    assert d.spans == spans
    assert d.dim == sum(f.dim for f in factors) == spans[-1][2]
    assert d.rank == sum(f.rank for f in factors)
    assert d.rho2 == sum((f.rho2 for f in factors), ())
    assert len(d.pos) == sum(len(f.pos) for f in factors)
    # pairings and Cartan rows are those of the padded roots
    for roots, rows in ((d.pos, d.pairing), (d.simple, d.cartan)):
        assert rows == tuple(
            tuple(2 * _dot(r, a) // n for a, n in zip(d.simple, d.simple_norm))
            for r in roots
        )
    box = list(itertools.product(range(-3, 4), repeat=d.dim))
    dominant = 0
    for t in box:
        assert d.dominant_twice(t) == _ref_dominant(spans, t)
        assert d.sign_and_chamber(t) == _ref_sign_and_chamber(spans, t)
        integral = all(_sys(lab).is_integral(t[a:b]) for lab, a, b in spans)
        assert d.is_integral(t) == integral
        assert d.in_chamber(t) == (_ref_dominant(spans, t) == t)
        if not integral:
            continue
        assert _dim_single(d.label, t) == _ref_dim(spans, t)
        if not d.in_chamber(t):
            continue
        dominant += 1
        orbit = d.orbit(t, 10 ** 4)
        assert len(orbit) == len(set(orbit))
        assert set(orbit) == {
            sum(parts, ())
            for parts in itertools.product(*(
                _sys(lab).orbit(t[a:b], 10 ** 4) for lab, a, b in spans
            ))
        }
    assert dominant >= 4


def _ref_sign_by_roots(d, v):
    """(-1)^#{alpha > 0 : <v, alpha> < 0} and dominant_twice(v), None on
    a zero pairing: the definition, one positive root at a time."""
    sign = 1
    for a in d.pos:
        p = _dot(v, a)
        if not p:
            return None
        if p < 0:
            sign = -sign
    return sign, d.dominant_twice(v)


def _signed_permutations(mags):
    return {
        tuple(s * x for s, x in zip(signs, p))
        for p in itertools.permutations(mags)
        for signs in itertools.product((1, -1), repeat=len(mags))
    }


@pytest.mark.parametrize(
    "label", ["C1", "C3", "A5", "D6", "B3"] + PRODUCT_LABELS, ids=str)
def test_sign_and_chamber_counts_the_negative_roots(label):
    # a box holds ties and zeros.  The signed permutations of 0..n-1 are
    # the W(D_n)-orbit of a regular vector, each element once, and hold 0
    # entries under odd numbers of negatives; those of 1..n (dimension
    # up to 4, which takes in B3 and C3) are a regular W(B_n)-orbit
    d = _sys(label)
    n = d.dim
    r = 2 if n <= 4 else 1
    vecs = set(itertools.product(range(-r, r + 1), repeat=n))
    vecs |= _signed_permutations(range(n))
    if n <= 4:
        vecs |= _signed_permutations(range(1, n + 1))
    answers = {v: d.sign_and_chamber(v) for v in vecs}
    for v, hit in answers.items():
        assert hit == _ref_sign_by_roots(d, v), v
    assert {hit and hit[0] for hit in answers.values()} == {None, 1, -1}
    if label == "D6":
        assert any(
            answers[v] and 0 in v and sum(x < 0 for x in v) % 2
            for v in vecs
        )


def _ref_positive_roots(simple, norms) -> dict:
    """{positive root: its simple-coroot pairings}, height by height, by
    root strings: for a positive root beta and a simple root alpha, the
    alpha-string through beta runs from beta - p alpha to beta + q alpha
    with p - q = <beta, alpha^vee>, so beta + alpha is a root iff
    p > <beta, alpha^vee>.  A root is keyed by its simple-root
    coefficients, the digits of a base-16 integer (none exceeds 6)."""
    cartan = [
        tuple(2 * _dot(b, a) // n for a, n in zip(simple, norms))
        for b in simple
    ]
    steps = [16 ** i for i in range(len(simple))]
    roots = {s: (a, c) for s, a, c in zip(steps, simple, cartan)}
    layer = list(roots)
    while layer:
        nxt = []
        for k in layer:
            b, pairing = roots[k]
            for i, s in enumerate(steps):
                p = 0
                while k - (p + 1) * s in roots:
                    p += 1
                if p > pairing[i] and k + s not in roots:
                    roots[k + s] = (
                        _add(b, simple[i]),
                        tuple(x + y for x, y in zip(pairing, cartan[i])),
                    )
                    nxt.append(k + s)
        layer = nxt
    return dict(roots.values())


@pytest.mark.parametrize("label", sorted(_SIMPLE) + PRODUCT_LABELS, ids=str)
def test_positive_roots_match_root_strings(label):
    d = _sys(label)
    ref = _ref_positive_roots(d.simple, d.simple_norm)
    pos = tuple(sorted(ref))
    assert d.pos == pos
    assert d.pairing == tuple(map(ref.get, pos))
    assert d.cartan == tuple(map(ref.get, d.simple))
    total = [sum(col) for col in zip(*pos)] or [0] * d.dim
    assert d.rho2 == tuple(t // 2 for t in total)


@pytest.mark.parametrize("label", ["B4", "C1", "G2", "Spin2"])
def test_one_label_tuple_is_that_label(label):
    assert _sys((label,)) is _sys(label)
    assert _sys(label).spans == ((label, 0, _sys(label).dim),)


def _lattice_vectors(label, count, seed):
    """Random weight-lattice vectors: integer combinations of the simple
    roots and of one weight of the smallest irrep (E6, E7)."""
    d = _sys(label)
    gens = list(d.simple) + {
        "E6": [(1, 1, 1, 1, 1, -1, -1, 1)],
        "E7": [(0, 0, 0, 0, 0, 2, -1, 1)],
    }.get(label, [])
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        t = (0,) * d.dim
        for g in gens:
            c = rng.randrange(-3, 4)
            t = tuple(x + c * y for x, y in zip(t, g))
        out.append(t)
    return out


@pytest.mark.parametrize("label", ["F4", "E6", "E7", "E8"])
def test_parabolic_kernel_matches_walk(label):
    d = _sys(label)
    vecs = _lattice_vectors(label, 1000, 11)
    if label in ("E7", "E8"):
        assert any(x % 2 for t in vecs for x in t)  # half-integral ones
    for t in vecs:
        assert d.is_integral(t)
        assert d.dominant_twice(t) == _descend(d, t)


def test_g2_closed_form_matches_walk():
    d = _sys("G2")
    for x in range(-4, 5):
        for y in range(-4, 5):
            t = (2 * x, 2 * y, -2 * x - 2 * y)
            assert d.dominant_twice(t) == _descend(d, t)


def test_g2_closed_form_off_lattice():
    # (3/2, -5/2, 1): the walk would reject it, the closed form sorts it
    assert _sys("G2").dominant_twice((3, -5, 2)) == (3, 2, -5)
    assert _sys("G2").dominant_twice((-3, 5, -2)) == (3, 2, -5)


def test_f4_kernel_off_lattice():
    # (1, -1/2, 0, 0): the B3 closed form sorts it and alpha4 already
    # pairs non-negatively; (0, -1/2, 0, 0) needs the alpha4 reflection,
    # which refuses it
    d = _sys("F4")
    assert d.dominant_twice((2, -1, 0, 0)) == (2, 1, 0, 0)
    with pytest.raises(ValueError, match="weight lattice"):
        d.dominant_twice((0, -1, 0, 0))


@pytest.mark.parametrize("label", ["G2", "F4", "E6", "E7", "E8"])
def test_descent_from_minus_rho_takes_every_step(label):
    # w0 rho = -rho and rho is regular, so -rho is the farthest point of
    # its orbit from the chamber: the descent takes a reduced word for
    # w0, l(w0) = |positive roots| steps, of which F4 and the E series
    # spend at most that many in their guarded extra-root reflections
    d = _sys(label)
    assert d.dominant_twice(_neg(d.rho2)) == d.rho2


@pytest.mark.parametrize("label,coeffs", [
    ("E6", (1, 2, 2, 3, 2, 1)),
    ("E7", (2, 2, 3, 4, 3, 2, 1)),
    ("E8", (2, 3, 4, 6, 5, 4, 3, 2)),
    ("F4", (2, 3, 4, 2)),
    ("G2", (3, 2)),
])
def test_highest_root_coefficients(label, coeffs):
    assert highest_root_coefficients(label) == coeffs


# D2 = A1 x A1 is reducible: it has two highest roots
@pytest.mark.parametrize("label", sorted(set(ROOT_SYSTEM_TABLE) - {"D2"}))
def test_highest_root_reconstruction(label):
    d = _sys(label)
    coeffs = highest_root_coefficients(label)
    total = [0] * d.dim
    for c, a in zip(coeffs, d.simple):
        for i, x in enumerate(a):
            total[i] += c * x
    assert tuple(total) == highest_root(label).twice()
    assert highest_root(label).twice() in d.pos


def test_highest_root_values():
    assert highest_root("B3").twice() == (2, 2, 0)
    assert highest_root("E7").twice() == (0, 0, 0, 0, 0, 0, -2, 2)


def test_dominant_representative_golden():
    w = Weight((-1, 3, 2), "B3")
    assert dominant_representative(w).coords == (3, 2, 1)


def test_dominant_representative_refuses_g2_off_the_plane():
    # sorting up to sign is the action of W(G2) only on the sum-zero plane
    for coords in ((1, 0, 0), (3, 3, 0)):
        with pytest.raises(ValueError, match="sum-zero plane"):
            dominant_representative(Weight(coords, "G2"))
    # on the plane but off the lattice, (3/2, -5/2, 1) still sorts
    w = Weight.from_twice((3, -5, 2), "G2")
    assert dominant_representative(w).twice() == (3, 2, -5)


@pytest.mark.parametrize("label,coords,span", [
    ("E7", (0, 0, 0, 0, 0, 0, 1, 1), "x7 + x8 = 0"),
    ("E6", (0, 0, 0, 0, 0, 1, 0, 1), "x6 = x7 = -x8"),
])
def test_dominant_representative_refuses_e_weights_off_the_root_span(
        label, coords, span):
    w = Weight(coords, label)
    message = f"it must lie in the root span {span}"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        dominant_representative(w)
    # on the span, the highest root is its own representative
    assert dominant_representative(highest_root(label)) == highest_root(label)


@pytest.mark.parametrize("label", ["B3", "C3", "D4", "G2", "F4"])
def test_dominant_representative_properties(label):
    sd = _sys(label)
    rng = random.Random(7)
    rho2 = sd.rho2
    simple2 = sd.simple
    for _ in range(10):
        t = list(rho2)
        for a2 in simple2:
            c = rng.randrange(-3, 4)
            for i, x in enumerate(a2):
                t[i] += c * x
        w = Weight.from_twice(tuple(t), label)
        d = dominant_representative(w)
        assert sd.in_chamber(d.twice())
        assert dominant_representative(d) == d
        assert w.twice() in sd.orbit(sd.dominant_twice(d.twice()), 100000)


ORACLE_SYSTEMS = ("A1", "A2", "A3", "A5", "B1", "B2", "B3", "B4", "C1",
                  "C2", "C3", "D2", "D3", "D4", "G2", "F4")


def _dominant_by_search(d, thw):
    """Brute force: walk down from thw by simple roots while the
    rho-pairing stays >= 0 and collect the dominant vectors.  A dominant
    mu <= thw has rho-pairing >= 0, and so has every vector met on the
    way from thw to mu, so the walk reaches all of them."""
    steps = [(a, sum(x * y for x, y in zip(a, d.rho2))) for a in d.simple]
    seen = {thw}
    stack = [(thw, sum(x * y for x, y in zip(thw, d.rho2)))]
    while stack:
        v, height = stack.pop()
        for a, drop in steps:
            if height >= drop:
                u = tuple(x - y for x, y in zip(v, a))
                if u not in seen:
                    seen.add(u)
                    stack.append((u, height - drop))
    return {v for v in seen if d.in_chamber(v)}


def h(p):
    return HalfInt(p)


# two small highest weights for each oracle system, half-integral ones
# where the lattice allows; the adjoint of E6 and the 56 of E7
SMALL_WEIGHTS = {
    "A1": [(1, 0), (3, 0)],
    "A2": [(2, 1, 0), (h(1), h(1), h(-1))],
    "A3": [(1, 1, 0, 0), (2, 0, 0, -1)],
    "A5": [(1, 1, 1, 0, 0, 0), (2, 1, 0, 0, 0, -1)],
    "B1": [(2,), (h(3),)],
    "B2": [(1, 1), (h(3), h(1))],
    "B3": [(1, 1, 0), (h(3), h(1), h(1))],
    "B4": [(1, 1, 0, 0), (h(1), h(1), h(1), h(1))],
    "C1": [(1,), (4,)],
    "C2": [(2, 1), (1, 1)],
    "C3": [(1, 1, 1), (2, 1, 0)],
    "D2": [(2, -1), (h(3), h(1))],
    "D3": [(1, 1, -1), (h(3), h(1), h(-1))],
    "D4": [(1, 1, 0, 0), (h(3), h(1), h(1), h(-1))],
    "G2": [(1, 1, -2), (2, 1, -3)],
    "F4": [(1, 1, 0, 0), (h(3), h(1), h(1), h(1))],
    "E6": [(h(1), h(1), h(1), h(1), h(1), h(-1), h(-1), h(1))],
    # the 56; the walk under the adjoint of E7 already meets 346104 vectors
    "E7": [(0, 0, 0, 0, 0, 1, h(-1), h(1))],
}


@pytest.mark.parametrize("label,hw", [
    pytest.param(label, hw, id=f"{label}-{i}")
    for label in ORACLE_SYSTEMS + ("E6", "E7")
    for i, hw in enumerate(SMALL_WEIGHTS[label])
])
def test_dominant_char_matches_search(label, hw):
    d = _sys(label)
    thw = Weight(hw, label).twice()
    assert d.in_chamber(thw) and d.is_integral(thw)
    got = _dominant_char(label, thw)
    assert set(got) == _dominant_by_search(d, thw)
    assert min(got.values()) >= 1


def _top_roots(d):
    """The dominant roots of greatest length: the highest root, or both
    of D2 = A1 x A1."""
    dom = [a for a in d.pos if d.in_chamber(a)]
    top = max(_dot(a, a) for a in dom)
    return [a for a in dom if _dot(a, a) == top]


@pytest.mark.parametrize("label", sorted(ROOT_SYSTEM_TABLE))
def test_adjoint_zero_weight_multiplicity_is_the_rank(label):
    # the zero weight space of the adjoint representation is the Cartan
    # subalgebra
    d = _sys(label)
    zero = (0,) * d.dim
    assert sum(_dominant_char(label, a)[zero] for a in _top_roots(d)) \
        == d.rank


def test_f4_26_zero_weight_multiplicity():
    assert _dominant_char("F4", (2, 0, 0, 0))[(0, 0, 0, 0)] == 2


def _freudenthal_reference(label, thw):
    """Freudenthal's recursion as first written: the dominant weights by
    in-chamber tests on coordinates, and every positive root's alpha-string
    walked to its first non-weight.  The reference for _dominant_char,
    order of the dict included."""
    d = _sys(label)
    found = {thw}
    frontier = [thw]
    while frontier:
        nxt = []
        for t in frontier:
            for a in d.pos:
                v = _sub(t, a)
                if v not in found and d.in_chamber(v):
                    found.add(v)
                    nxt.append(v)
        frontier = nxt
    dom = sorted(found, key=lambda t: -_dot(t, d.rho2))
    lam_rho = _add(thw, d.rho2)
    top_norm = _dot(lam_rho, lam_rho)
    mult = {thw: 1}
    for mu in dom:
        if mu == thw:
            continue
        total = 0
        for a in d.pos:
            v = _add(mu, a)
            while m := mult.get(d.dominant_twice(v)):
                total += m * _dot(v, a)
                v = _add(v, a)
        mu_rho = _add(mu, d.rho2)
        denom = top_norm - _dot(mu_rho, mu_rho)
        assert denom > 0 and (2 * total) % denom == 0
        mult[mu] = (2 * total) // denom
    return mult


def _dominant_in_box(label, bound):
    """Every dominant lattice weight of label with doubled entries in
    [-bound, bound] and dimension within the default cap.  The chamber
    of each oracle system lies in the non-increasing vectors, and G2's
    weights in the sum-zero plane."""
    d = _sys(label)
    return [
        t for t in itertools.combinations_with_replacement(
            range(bound, -bound - 1, -1), d.dim)
        if d.in_chamber(t) and d.is_integral(t)
        and (label != "G2" or sum(t) == 0)
        and _dim_single(label, t) <= DEFAULT_DIM_CAP
    ]


@pytest.mark.parametrize("label", ORACLE_SYSTEMS + ("E6", "E7", "E8"))
def test_dominant_char_equals_the_reference(label):
    if label[0] == "E":
        top = highest_root(label).twice()
        weights = [tuple(k * x for x in top) for k in range(4)]
    else:
        weights = _dominant_in_box(label, 8 if label in ("F4", "B4") else 6)
    assert len(weights) >= 4
    for t in weights:
        assert list(_dominant_char(label, t).items()) == \
            list(_freudenthal_reference(label, t).items()), t


def _root_classes(label):
    """The orbits of W on the positive roots modulo sign: one per root
    length in each irreducible component."""
    return {"B1": 1, "C1": 1, "D2": 2, "G2": 2, "F4": 2}.get(
        label, 2 if label[0] in "BC" else 1)


@pytest.mark.parametrize("label", sorted(ROOT_SYSTEM_TABLE))
def test_string_orbits(label):
    d = _sys(label)
    npos = len(d.pos)
    for size in range(d.rank + 1):
        for zeros in itertools.combinations(range(d.rank), size):
            orbits = _string_orbits(label, zeros)
            assert sum(n for _, n in orbits) == npos
            assert [k for k, _ in orbits] == sorted({k for k, _ in orbits})
    assert _string_orbits(label, ()) == tuple((k, 1) for k in range(npos))
    every = _string_orbits(label, tuple(range(d.rank)))
    assert len(every) == _root_classes(label)
    # each class is the Weyl orbit, up to sign, of its first root
    pos = set(d.pos)
    for k, n in every:
        orbit, stack = {d.pos[k]}, [d.pos[k]]
        while stack:
            b = stack.pop()
            for i in range(d.rank):
                c = d.reflect_simple(b, i)
                c = c if c in pos else _neg(c)
                if c not in orbit:
                    orbit.add(c)
                    stack.append(c)
        assert len(orbit) == n


def _orbit(hw, label, max_size=100000):
    d = _sys(label)
    return d.orbit(d.dominant_twice(Weight(hw, label).twice()), max_size)


def _reflect_rational(t, a):
    p = Fraction(2 * sum(x * y for x, y in zip(t, a)),
                 sum(x * x for x in a))
    if p.denominator != 1:
        raise ValueError("vector not in the weight lattice")
    return tuple(x - int(p) * y for x, y in zip(t, a))


@pytest.mark.parametrize("label,hw", [
    ("F4", (1, 0, 0, 0)),
    ("F4", (2, 1, 1, 0)),
    ("F4", (HalfInt(3), HalfInt(1), HalfInt(1), HalfInt(1))),
    ("G2", (1, 0, -1)),
    ("G2", (2, 1, -3)),
])
def test_reflect_simple_matches_rational_formula(label, hw):
    d = _sys(label)
    for t in _orbit(hw, label):
        for i, a in enumerate(d.simple):
            assert d.reflect_simple(t, i) == _reflect_rational(t, a)


@pytest.mark.parametrize("label,t,i", [("F4", (1, 0, 0, 0), 3),
                                       ("G2", (1, 0, -1), 0)])
def test_reflect_simple_rejects_off_lattice(label, t, i):
    d = _sys(label)
    with pytest.raises(ValueError, match="weight lattice"):
        _reflect_rational(t, d.simple[i])
    with pytest.raises(ValueError, match="weight lattice"):
        d.reflect_simple(t, i)


def test_weyl_orbit_sizes():
    assert len(_orbit((1, 0, 0), "B3")) == 6
    assert len(_orbit((0, 0, 0), "B3")) == 1
    assert len(_orbit((1, 0, -1), "G2")) == 6
    with pytest.raises(ValueError, match="orbit too large"):
        _orbit((1, 0, 0), "B3", max_size=5)


def test_is_dominant():
    assert _sys("B3").in_chamber((4, 2, 0))
    assert not _sys("B3").in_chamber((2, 4, 0))


QUAT_TABLE = {
    # label: (system, m_label, m_factors, vm_dim)
    "Spin(4,3)": ("B3", "SU(2)xSpin(3)", ("C1", "C1"), 6),
    "Spin(4,4)": ("D4", "SU(2)^3", ("C1", "C1", "C1"), 8),
    "E6_4": ("E6", "SU(6)", ("A5",), 20),
    "E7_4": ("E7", "Spin(12)", ("D6",), 32),
    "E8_4": ("E8", "E7", ("E7",), 56),
    "F4_4": ("F4", "Sp(3)", ("C3",), 14),
    "G2_2": ("G2", "SU(2)", ("C1",), 4),
}


@pytest.mark.parametrize("g_label", sorted(QUAT_TABLE))
def test_quaternionic_structure_rows(g_label):
    system, m_label, m_factors, vm_dim = QUAT_TABLE[g_label]
    qs = quaternionic_structure(g_label)
    assert qs.g_label == g_label
    assert qs.system == system
    assert qs.m_label == m_label
    assert qs.m_factors == m_factors
    assert qs.vm_dim == vm_dim
    assert qs.k_label.startswith("SU_0(2)")
    hr = highest_root(system).twice()
    assert qs.alpha0.twice() == tuple(-c for c in hr)


def test_quaternionic_structure_unknown_label():
    with pytest.raises(ValueError):
        quaternionic_structure("Spin(5,5)")
