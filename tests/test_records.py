"""The contract of the package's 14 frozen value records: construction
by position, keyword and default, no assignment or deletion, class-exact
equality with equal hashes, the dataclass-style repr, and round trips
through copy.deepcopy and pickle."""

import copy
import pickle
from fractions import Fraction

import pytest

import quatheta
from quatheta.aqmodules import AqCase, AqData, ThetaUnitaryResult, aq_data
from quatheta.branchrules import Spin2Module
from quatheta.charoracle import (
    CharMultiset, EmbeddingMap, Irrep, IsoDecomp, embedding,
)
from quatheta.quaternionic import KTypeLedger, QuatModule, ktypes
from quatheta.rootdata import (
    HalfInt, QuaternionicStructure, Weight, _Record, quaternionic_structure,
)
from quatheta.thetamaps import ThetaLift

_MOD = QuatModule("Spin(4,3)", ((0,), (1,)), 6)


def _examples():
    """(class, make) pairs, one per record; make() builds a fresh,
    equal object on every call."""
    return [
        (HalfInt, lambda: HalfInt(-3)),
        (Weight, lambda: Weight((1, "1/2", 0), "B3")),
        (QuaternionicStructure, lambda: QuaternionicStructure(
            **{f: getattr(quaternionic_structure("G2_2"), f)
               for f in QuaternionicStructure._fields})),
        (Irrep, lambda: Irrep(("C1", "C1"), ((1,), (2,)))),
        (CharMultiset, lambda: CharMultiset(("C1",), {(1,): 1, (-1,): 1})),
        (IsoDecomp, lambda: IsoDecomp(("C1", "C1"), {(2, 4): 1, (0, 0): 3})),
        (EmbeddingMap, lambda: EmbeddingMap(
            "Spin9>Spin8", "B4", ("D4",), (0, 1, 2, 3))),
        (Spin2Module, lambda: Spin2Module(((-1, 2), (1, 2)))),
        (QuatModule, lambda: QuatModule("Spin(4,3)", ((0,), (1,)), 6)),
        (KTypeLedger, lambda: ktypes(_MOD, 2)),
        (ThetaLift, lambda: ThetaLift(((_MOD, 2),), upper_bound=True)),
        (AqCase, lambda: AqCase("G2", "I", (2, 1, -3))),
        (AqData, lambda: AqData(
            (4, 2, -6), (4, 3, -7), (10, 4), ((1, -1, 0),))),
        (ThetaUnitaryResult, lambda: ThetaUnitaryResult(False, (1, 2), True)),
    ]


_IDS = [cls.__name__ for cls, _ in _examples()]
# a dict or an IsoDecomp field makes the record unhashable, as before
_UNHASHABLE = {CharMultiset, IsoDecomp, KTypeLedger}


def test_fourteen_records():
    assert len({cls for cls, _ in _examples()}) == 14


def test_every_exported_value_class_is_a_record():
    exported = {
        obj for obj in map(quatheta.__dict__.get, quatheta.__all__)
        if isinstance(obj, type) and not issubclass(obj, Exception)
    }
    assert all(issubclass(cls, _Record) for cls in exported)
    assert exported == {cls for cls, _ in _examples()}


@pytest.mark.parametrize("cls, make", _examples(), ids=_IDS)
def test_frozen(cls, make):
    obj = make()
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert obj == make()


@pytest.mark.parametrize("cls, make", _examples(), ids=_IDS)
def test_equality_is_class_exact(cls, make):
    a, b = make(), make()
    assert a == b and not a != b
    if cls not in _UNHASHABLE:
        assert hash(a) == hash(b)

    class Sub(cls):
        __slots__ = ()

    twin = Sub.__new__(Sub)
    for name, value in zip(cls._fields, cls._values(a)):
        object.__setattr__(twin, name, value)
    if cls is HalfInt:
        assert a == twin  # HalfInt compares by value, like int and Fraction
    else:
        assert a != twin and twin != a


@pytest.mark.parametrize("cls, make", _examples(), ids=_IDS)
def test_unhashable_only_through_a_field(cls, make):
    if cls in _UNHASHABLE:
        with pytest.raises(TypeError):
            hash(make())
    else:
        hash(make())


@pytest.mark.parametrize("cls, make", _examples(), ids=_IDS)
def test_deepcopy_and_pickle_round_trip(cls, make):
    obj = make()
    for copied in (copy.deepcopy(obj), copy.copy(obj),
                   pickle.loads(pickle.dumps(obj))):
        assert type(copied) is cls
        assert copied == obj


def test_halfint_hashes_like_fraction():
    for t in range(-60, 61):
        assert hash(HalfInt(t)) == hash(Fraction(t, 2))
        assert HalfInt(t) == Fraction(t, 2)


def test_private_slots_are_not_fields():
    # HalfInt's cached hash sits in the underscore slot _hash
    assert HalfInt._fields == ("twice",)
    assert HalfInt(twice=3) == HalfInt(3)
    assert repr(HalfInt(twice=3)) == "3/2"
    assert HalfInt(3).__reduce__() == (HalfInt, (3,))


def test_positional_keyword_and_default_construction():
    assert ThetaLift((), sign="-") == ThetaLift((), "-", False, None)
    assert ThetaLift(lifts=()).sign is None
    data = AqData((4, 2, -6), (4, 3, -7), (10, 4), ((1, -1, 0),))
    assert data.minimal_type_u2 is None
    assert data == AqData(
        inf_char=(4, 2, -6), minimal_type_abc=(4, 3, -7),
        minimal_type_xy=(10, 4), u_cap_p_weights=((1, -1, 0),),
        minimal_type_u2=None,
    )
    assert QuatModule("Spin(4,3)", ((0,), (1,)), 6).kind == "A"
    assert QuatModule(g_label="Spin(4,3)", wm=((0,), (1,)), s=6,
                      kind="sigma") == _MOD.quotient()
    assert ThetaUnitaryResult(zero=True) == ThetaUnitaryResult(True, None)
    assert Spin2Module(entries=()) == Spin2Module(())
    assert HalfInt(twice=3) == HalfInt(3)
    assert Weight(coords=(1, 0), system="B2") == Weight((1, 0), "B2")
    assert quaternionic_structure("G2_2") == _examples()[2][1]()


def test_constructors_still_validate():
    with pytest.raises(ValueError):
        ThetaLift(((_MOD, 0),))
    with pytest.raises(ValueError):
        QuatModule("Spin(4,3)", ((0,), (1,)), 6, kind="B")
    with pytest.raises(ValueError):
        EmbeddingMap("bad", "B4", ("D4",), (0, 1, 2))
    with pytest.raises(ValueError):
        AqCase("G2", "I", (2.5, 1, -3.5))
    with pytest.raises(ValueError):
        Irrep("B3", (0, 1, 2))


def test_pinned_reprs():
    assert repr(_MOD) == (
        "QuatModule(g_label='Spin(4,3)', wm=((0,), (1,)), s=6, kind='A')"
    )
    assert repr(AqCase("G2", "I", (2, 1, -3))) == (
        "AqCase(group='G2', case_id='I', lam=(2, 1, -3))"
    )
    assert repr(aq_data(AqCase("PU21", "I", (2, 1, -3)))) == (
        "AqData(inf_char=(3, 1, -4), minimal_type_abc=(3, 1, -4), "
        "minimal_type_xy=(5, 3), u_cap_p_weights=((1, -1, 0), (0, 1, -1)), "
        "minimal_type_u2=(3, -4))"
    )
    assert repr(ThetaLift((), sign="-")) == (
        "ThetaLift(lifts=(), sign='-', upper_bound=False, "
        "stated_inf_char=None)"
    )
    assert repr(ThetaUnitaryResult(zero=True)) == (
        "ThetaUnitaryResult(zero=True, minimal_type_xy=None, "
        "conditional=False)"
    )
    assert repr(quaternionic_structure("G2_2")) == (
        "QuaternionicStructure(g_label='G2_2', system='G2', "
        "m_label='SU(2)', m_factors=('C1',), vm_hw=((3,),), vm_dim=4, "
        "alpha0=Weight(-1, -1, 2; G2), k_label='SU_0(2) x SU(2)', "
        "m_simple_coords=((2, -2, 0),))"
    )
    assert repr(CharMultiset(("C1",), {(1,): 1})) == (
        "CharMultiset(labels=('C1',), mults={(1,): 1})"
    )
    assert repr(IsoDecomp(("C1", "C1"), {(2, 4): 1})) == (
        "IsoDecomp(labels=('C1', 'C1'), twice_mults={(2, 4): 1})"
    )
    assert repr(embedding("Spin9>Spin8")) == (
        "EmbeddingMap(name='Spin9>Spin8', source='B4', targets=('D4',), "
        "coords=(0, 1, 2, 3))"
    )
    assert repr(Spin2Module(((-1, 2), (1, 2)))) == (
        "Spin2Module(entries=((-1, 2), (1, 2)))"
    )
    # the records that print themselves keep their own forms
    assert repr(HalfInt(-3)) == "-3/2"
    assert repr(Weight((1, "1/2", 0), "B3")) == "Weight(1, 1/2, 0; B3)"
    assert repr(Irrep(("C1", "C1"), ((1,), (2,)))) == "Irrep[C1xC1](1) x (2)"
    assert repr(ktypes(_MOD, 0)).startswith(
        f"KTypeLedger(module={_MOD!r}, levels=((4, "
    )
