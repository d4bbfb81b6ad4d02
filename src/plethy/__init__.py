"""Exact-arithmetic construction and verification of a plethystic
wedge-to-hook isomorphism for SL2 representation spaces."""

from .rings import (
    QQ,
    ZGAMMA,
    ZZ,
    ConsistencyError,
    IntPoly,
    IntPolynomialRing,
    PrimeField,
    Ring,
    binomial,
    ring_by_name,
)
from .tableaux import (
    box,
    content,
    content_chain,
    count_hook_tableaux,
    increasing_to_pair,
    increasing_tuples,
    is_semistandard,
    neighbour,
    pair_alpha,
    pair_precedes,
    pair_sort_key,
    pair_to_increasing,
    semistandard_pairs,
)
from .spaces import (
    LinearMap,
    ModuleElement,
    PairCoords,
    Space,
    Sym,
    SymPower,
    Tensor,
    Wedge,
    basis,
    basis_index,
    dim,
    group_action_map,
    identity_map,
    kernel_basis,
    lie_action_map,
    multiplication_map,
    rank,
    rank_of_vectors,
    solve,
    wedge_normalize,
)
from .schur import HookSchurSpace, hook_schur_space
from .iso import (
    IsoContext,
    basis_image,
    gamma_coefficients,
    gl2_scalar_exponents,
    iso_context,
    reversal_sign,
    triangular_witness,
    verify_duality,
    verify_group_equivariance_fp,
    verify_group_equivariance_poly,
    verify_lie_equivariance,
    verify_structure,
)
from .characters import (
    gaussian_binomial,
    hook_schur_polynomial,
    q_integer,
    qchar,
    qpoly,
    verify_qchar_identity,
)
from .conjecture import (
    CONVENTION,
    ConjectureReport,
    PrimeFingerprint,
    conjecture_qchar,
    hook_domain,
    hook_kernel_map,
    hook_kernel_vectors,
    jordan_fingerprint,
    jordan_type_from_ranks,
    kernel_qchar,
    lhs_space,
    scan,
    scan_one,
)
from .dump import (
    basis_to_json,
    dump_payload,
    linear_map_from_json,
    linear_map_to_csv,
    linear_map_to_json,
    ring_from_json,
    ring_to_json,
    weight_block_digest,
    weight_block_digests,
)

__version__ = "0.1.0"
