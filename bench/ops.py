"""Operations the worker runs, by kind.

Every kind maps its JSON arguments to ``(call, convert)``: ``call`` is
the timed call into quatheta; ``convert`` turns its result into JSON
after the timing stops.  Calls look functions up on their modules at
call time, so the traced run's rebinding sees them.
"""

import contextlib
import io

from quatheta import (
    aqmodules,
    branchrules,
    charoracle,
    cli,
    quaternionic,
    rootdata,
    thetamaps,
)


def _weight(label, twice):
    return rootdata.Weight.from_twice(tuple(twice), label)


def _k_restrict(label, twice, emb):
    r = charoracle.Irrep(label, _weight(label, twice))
    e = charoracle.embedding(emb)
    return (
        lambda: charoracle.restrict(r, e),
        lambda dec: [[list(r.twice_concat()), m] for r, m in dec.items()],
    )


def _k_ktypes(argv):
    buf = io.StringIO()

    def call():
        with contextlib.redirect_stdout(buf):
            return cli.main(list(argv))

    return call, lambda code: {"code": code, "stdout": buf.getvalue()}


def _coords(twice):
    return tuple(rootdata.HalfInt(t) for t in twice)


def _k_branch_sp(twice):
    lam = _coords(twice)
    return (
        lambda: branchrules.branch_sp(lam),
        lambda d: sorted(
            [[c.twice for c in mu], sorted(cg.items())] for mu, cg in d.items()
        ),
    )


def _spin_table(d):
    return sorted(
        [[c.twice for c in mu], [list(e) for e in mod.entries]]
        for mu, mod in d.items()
    )


def _k_branch_spin_odd(twice):
    lam = _coords(twice)
    return lambda: branchrules.branch_spin_odd(lam), _spin_table


def _k_branch_spin_even(twice):
    lam = _coords(twice)
    return lambda: branchrules.branch_spin_even(lam), _spin_table


def _k_f4_table(a, b):
    return (
        lambda: branchrules.f4_to_spin9_table(a, b),
        lambda d: sorted([[c.twice for c in w], m] for w, m in d.items()),
    )


def _k_e7_rows(k):
    return (
        lambda: branchrules.restrict_e7_to_su2_spin12(k),
        lambda rows: [[m, list(w.twice())] for m, w in rows],
    )


def _k_theta_e6_torus(a, b, c, sign):
    return (
        lambda: thetamaps.theta_e6_torus(a, b, c, sign=sign),
        lambda lift: lift.to_json(),
    )


def _k_theta_e6_u2(a, b, sign):
    return (
        lambda: thetamaps.theta_e6_u2(a, b, sign=sign),
        lambda lift: lift.to_json(),
    )


def _k_infchar(which, params):
    return lambda: thetamaps.infchar_crosscheck(which, params), bool


def _case(group, case_id, lam):
    return aqmodules.AqCase(group, case_id, tuple(lam))


def _k_aq(group, case_id, lam):
    case = _case(group, case_id, lam)
    return lambda: aqmodules.aq_data(case), lambda d: d.to_json()


def _k_cone_rays(group, case_id, lam):
    case = _case(group, case_id, lam)
    return (
        lambda: aqmodules.cone_extreme_rays(case),
        lambda rays: [list(r) for r in rays],
    )


def _k_cone_contains(group, case_id, lam, xy):
    case = _case(group, case_id, lam)
    return lambda: aqmodules.cone_contains(case, tuple(xy)), bool


def _k_theta_unitary(regime, params, tau):
    if isinstance(params, list):
        params = tuple(params)
    return (
        lambda: aqmodules.theta_unitary(regime, params, tuple(tau)),
        lambda res: res.to_json(),
    )


def _k_surjectivity(n):
    return lambda: quaternionic.check_lemma_surjectivity(n), list


KINDS = {
    name[3:]: fn for name, fn in globals().items() if name.startswith("_k_")
}
