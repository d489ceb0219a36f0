"""Exact branching laws, theta-lift parameter maps, and K-type ledgers
for quaternionic real forms of the exceptional groups."""

from .rootdata import (
    HalfInt,
    QuaternionicStructure,
    Weight,
    dominant_representative,
    highest_root,
    highest_root_coefficients,
    quaternionic_structure,
)
from .charoracle import (
    CharMultiset,
    EmbeddingMap,
    Irrep,
    IsoDecomp,
    OracleCapError,
    char_weights,
    dim_cap,
    embedding,
    irrep,
    restrict,
    strip_dominant,
    weyl_dim,
)
from .branchrules import (
    Spin2Module,
    branch_sp,
    branch_spin_even,
    branch_spin_odd,
    clebsch_gordan,
    f4_to_spin9_table,
    restrict_e7_to_su2_spin12,
)
from .quaternionic import (
    KTypeLedger,
    QuatModule,
    check_lemma_surjectivity,
    inf_char,
    ktypes,
    minimal_type,
    restrict_filtration,
    sym_power,
)
from .thetamaps import (
    ThetaLift,
    infchar_crosscheck,
    seesaw_truncation_check,
    theta_e6_torus,
    theta_e6_u2,
    theta_e7,
    theta_e8_spin8,
    theta_e8_spin9,
    theta_f4,
)
from .aqmodules import (
    AqCase,
    AqData,
    ThetaUnitaryResult,
    abc_to_xy,
    aq_data,
    cone_contains,
    cone_extreme_rays,
    ftau_restriction_segments,
    g2_modules_with_infchar,
    orbit_key,
    theta_unitary,
    xy_to_abc,
)
from .verify import run_suite

__all__ = [
    "HalfInt", "QuaternionicStructure", "Weight", "dominant_representative",
    "highest_root", "highest_root_coefficients", "quaternionic_structure",
    "CharMultiset", "EmbeddingMap", "Irrep", "IsoDecomp", "OracleCapError",
    "char_weights", "dim_cap", "embedding", "irrep", "restrict",
    "strip_dominant", "weyl_dim",
    "Spin2Module", "branch_sp", "branch_spin_even", "branch_spin_odd",
    "clebsch_gordan", "f4_to_spin9_table", "restrict_e7_to_su2_spin12",
    "KTypeLedger", "QuatModule", "check_lemma_surjectivity", "inf_char",
    "ktypes", "minimal_type", "restrict_filtration", "sym_power",
    "ThetaLift", "infchar_crosscheck", "seesaw_truncation_check",
    "theta_e6_torus", "theta_e6_u2", "theta_e7", "theta_e8_spin8",
    "theta_e8_spin9", "theta_f4",
    "AqCase", "AqData", "ThetaUnitaryResult", "abc_to_xy", "aq_data",
    "cone_contains", "cone_extreme_rays", "ftau_restriction_segments",
    "g2_modules_with_infchar", "orbit_key", "theta_unitary", "xy_to_abc",
    "run_suite",
]
