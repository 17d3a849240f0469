"""Exact characters, spectra, and minimal polynomials for S_n and A_n.

The package computes ordinary irreducible characters of symmetric and
alternating groups in exact arithmetic, turns them into eigenvalue
multiplicities and minimal polynomials of permutation images, verifies the
classification of the non generic minimal polynomials exhaustively, and
certifies the analytic inequalities the theory rests on with outward rounded
interval arithmetic. An independent Specht module oracle reproduces the same
spectra from integer matrices alone.
"""

from .arith import cyclotomic, divisors, euler_phi, kronecker_symbol, moebius, split_square
from .bounds import (
    DEFAULT_PRECISION_BITS,
    BoundClause,
    BoundReport,
    estimate_check,
    fomin_lulov_check,
    min_degree_check,
    robbins_check,
    sweep_estimate,
    sweep_fomin_lulov,
    sweep_robbins,
    sweep_tail,
    tail_inequalities_check,
)
from .characters_an import (
    MINUS,
    PLUS,
    RESTRICTED,
    AlgebraicValue,
    AnCharacterLabel,
    an_class_size,
    an_classes,
    an_irreducible_labels,
    chi_an,
    is_split,
    special_class,
)
from .characters_sn import (
    CharacterTable,
    branch,
    chi,
    chi_closed_form,
    chi_frobenius,
    chi_hook_on_uniform,
    degree,
    full_table,
    sign_twist_check,
)
from .classify import (
    Prediction,
    VerificationReport,
    predict_an,
    predict_no_eigenvalue_one,
    predict_sn,
    verify_eigenvalue_one,
    verify_minpoly_an,
    verify_minpoly_sn,
)
from .partitions import (
    CycleType,
    Partition,
    conjugate,
    diagonal_hooks,
    enumerate_partitions,
    format_cycle_type,
    format_partition,
    parse_cycle_type,
    parse_partition,
    partition_count,
)
from .specht import (
    oracle_min_poly,
    oracle_spectrum,
    polytabloid,
    sigma_matrix,
    standard_tableaux,
)
from .spectral import (
    MinPoly,
    SpectrumProfile,
    fixed_space_dim,
    min_poly,
    ramanujan_sum,
    render_min_poly,
    spectrum_an,
    spectrum_an_numeric,
    spectrum_sn,
    spectrum_sn_direct,
)

__version__ = "0.1.0"
