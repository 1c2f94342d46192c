"""schmlab: Schmidt-number certification and k-PEB channel classification.

Numerical toolkit for finite bipartite quantum systems: Schmidt rank and
Schmidt number bounds with explicit evidence, kernel-projector Schmidt
witnesses, edge-state decompositions, Choi/Kraus channel conversions and
partially-entanglement-breaking certification, plus builders for the
rotation-group example states.
"""

__version__ = "0.1.0"

from .channels import (
    KrausRankProfile,
    PEBCertificate,
    QuantumChannel,
    certify_peb,
    choi_to_kraus,
    completely_depolarizing,
    identity_channel,
    kraus_rank_profile,
    kraus_to_choi,
    restrict_channel,
)
from .constructions import (
    FourierVector,
    RotationGrid,
    build_rotation_state,
    build_sn_k_state,
    fourier_profile,
    isotropic_state,
    isotropic_threshold,
    orthogonal_fourier_family,
    rotation_erosion_sweep,
    rotation_unitary,
)
from .errors import (
    DimensionLimitError,
    FilterDegenerateError,
    NumericError,
    ReferenceStateError,
    SchmlabError,
    TruncationDegenerateError,
    ValidationError,
    WitnessDegenerateError,
)
from .linalg import (
    BipartiteDims,
    eigh,
    min_eigenvalue,
    partial_trace,
    svd,
    trace_distance,
)
from .schmidt import (
    EdgeDecomposition,
    LambdaEvidence,
    SchmidtCertificate,
    WitnessOperator,
    build_witness,
    certify,
    edge_decompose,
    lambda_map,
    max_subtraction,
    max_subtractable,
    min_overlap_grid,
    min_overlap_sr,
    sn_lower_bound,
    sn_upper_bound,
    witness_from_lambda,
)
from .states import (
    DensityMatrix,
    PureState,
    SchmidtData,
    local_filter,
    maximally_entangled,
    product_state,
    purify,
    schmidt_decompose,
    schmidt_rank,
    truncate_state,
)

__all__ = [name for name in dir() if not name.startswith("_")]
