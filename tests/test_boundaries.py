"""Each public entry point refuses input outside its domain, with the
exception type and message it documents."""

import pytest

from quatheta.aqmodules import AqCase
from quatheta.branchrules import (
    clebsch_gordan,
    f4_to_spin9_table,
    restrict_e7_to_su2_spin12,
)
from quatheta.charoracle import Irrep, embedding, irrep, restrict
from quatheta.quaternionic import (
    QuatModule,
    check_lemma_surjectivity,
    restrict_filtration,
    sym_power,
)
from quatheta.rootdata import HalfInt, Weight, highest_root
from quatheta.thetamaps import (
    seesaw_truncation_check,
    theta_e6_torus,
    theta_e7,
)
from quatheta.verify import run_suite


def _spin44():
    return QuatModule("Spin(4,4)", ((0,), (0,), (0,)), 4)


@pytest.mark.parametrize("call,exc,message", [
    (lambda: restrict(irrep("C3", 1, 0, 0), embedding("Sp2>Sp1xSp1")),
     ValueError, "embedding Sp2>Sp1xSp1 does not start at C3"),
    (lambda: Irrep("C2", Weight((1, 0), "B2")),
     ValueError, "weight system B2 != factor C2"),
    (lambda: clebsch_gordan(-1, 2),
     ValueError, "SU(2) weights must be nonnegative"),
    (lambda: restrict_e7_to_su2_spin12(-1), ValueError, "need k >= 0"),
    (lambda: f4_to_spin9_table(1, 2), ValueError, "need a >= b >= 0"),
    (lambda: QuatModule("G2_2", ((3,),), 1),
     ValueError, "need integer s >= 2"),
    (lambda: sym_power(irrep("C1", 2), -1), ValueError, "need k >= 0"),
    (lambda: restrict_filtration(QuatModule("Spin(4,3)", ((0,), (0,)), 4), 2),
     ValueError, "filtration is for Spin(4,4) modules"),
    (lambda: restrict_filtration(_spin44(), -1),
     ValueError, "need kmax >= 0"),
    (lambda: check_lemma_surjectivity(-1), ValueError, "need n >= 0"),
    (lambda: theta_e7(1, 2, 0), ValueError, "need a >= b >= 0"),
    (lambda: theta_e7(2, 1, -1), ValueError, "need c >= 0"),
    (lambda: theta_e6_torus(0, 0, 0, sign="x"),
     ValueError, "sign must be '+' or '-'"),
    (lambda: seesaw_truncation_check(0, 1, 16),
     ValueError, "need b >= d >= 0"),
    (lambda: seesaw_truncation_check(1, "1/2", 16),
     ValueError, "b and d must be congruent mod 1"),
    (lambda: HalfInt.of(True), TypeError, "bool is not a weight coordinate"),
    (lambda: HalfInt.of(1.5),
     TypeError, "cannot interpret 1.5 as a half-integer"),
    (lambda: int(HalfInt(1)), ValueError, "1/2 is not an integer"),
    (lambda: irrep("X9", 1),
     ValueError, "unsupported root system label 'X9'"),
    (lambda: highest_root("Spin2"), ValueError, "Spin2 has no roots"),
    (lambda: highest_root("D2"),
     ValueError, "D2 is reducible: no unique highest root"),
    (lambda: AqCase("G2", "I", (1, 2)),
     ValueError, "lambda must be an integer triple"),
    (lambda: run_suite("nope"), ValueError, "unknown suite 'nope'"),
], ids=[
    "restrict-wrong-source", "irrep-wrong-system", "clebsch-gordan-negative",
    "e7-su2-spin12-negative", "f4-spin9-unordered", "quat-module-small-s",
    "sym-power-negative", "filtration-not-spin44", "filtration-negative",
    "surjectivity-negative", "theta-e7-unordered", "theta-e7-negative-c",
    "theta-e6-torus-sign", "seesaw-unordered", "seesaw-parity",
    "halfint-bool", "halfint-float", "halfint-int", "irrep-unknown-label",
    "highest-root-rank-0", "highest-root-reducible", "aq-case-pair",
    "unknown-suite",
])
def test_boundary_refusal(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc
    assert str(info.value) == message
