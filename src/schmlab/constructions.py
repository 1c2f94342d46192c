"""Builders for the rotation-group example states and standard test states.

One member loop builds the rotation-group states: `build_sn_k_state`
averages rotated copies of a rank-k seed over a grid, and the separable
rotation state, `build_rotation_state`, is its k = 1 case.

The continuous group average over the circle is replaced by a uniform
Riemann sum on a grid.  On the full circle the sum is exact from 4m+1
points on, for mode cutoff m: the rotated product's entries carry phases
e^(i x (k+l-k'-l')) with |k+l-k'-l'| <= 4m, and N >= 4m+1 uniform points
average each of them exactly, so from there the grid state *is* the group
average and a finer grid changes nothing.  Short-arc grids (arc < 1) are
never exact.  Either way the state is a finite mixture, so resistance to
low-Schmidt-rank subtraction must be read as a trend, never as an absolute.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg, schmidt
from .errors import ValidationError
from .linalg import BipartiteDims
from .sampling import derive_seed, rng_for
from .states import DensityMatrix, PureState, maximally_entangled

# Default geometric decay of the Fourier coefficient profile.
PROFILE_DECAY = 0.7

# Every coefficient of a generated Fourier vector must clear this floor.
NONVANISHING_FLOOR = 1e-6

# Phase randomizations orthogonal_fourier_family tries after the first build.
FAMILY_RETRIES = 100

# Hard cap on the points of a rotation grid: the rotation state is built
# one ensemble member per point.
MAX_GRID_POINTS = 4096

# Width of the fidelity bracket at which `isotropic_threshold` stops.
THRESHOLD_TOL = 1e-3


@dataclass(frozen=True)
class FourierVector:
    """Unit vector on the mode space k = -m..m (dimension 2m+1)."""

    coefficients: np.ndarray
    mode_cutoff: int

    def __post_init__(self):
        c = np.ascontiguousarray(self.coefficients, dtype=np.complex128)
        if c.size != 2 * self.mode_cutoff + 1:
            raise ValidationError(
                f"expected {2 * self.mode_cutoff + 1} coefficients, got {c.size}"
            )
        if abs(np.linalg.norm(c) - 1.0) > 1e-10:
            raise ValidationError("Fourier vector must have unit norm")
        object.__setattr__(self, "coefficients", c)

    @property
    def dim(self) -> int:
        return 2 * self.mode_cutoff + 1

    def min_coefficient(self) -> float:
        return float(np.min(np.abs(self.coefficients)))


@dataclass(frozen=True)
class RotationGrid:
    """Uniform grid x_l = arc * 2*pi * l / points, l = 0..points-1."""

    points: int
    arc: float = 1.0

    def __post_init__(self):
        if self.points < 1:
            raise ValidationError("grid needs at least one point")
        if self.points > MAX_GRID_POINTS:
            raise ValidationError(
                f"grid points are capped at {MAX_GRID_POINTS}, got {self.points}")
        if not 0.0 < self.arc <= 1.0:
            raise ValidationError(f"arc fraction must lie in (0,1], got {self.arc}")

    def xs(self) -> np.ndarray:
        return self.arc * 2.0 * np.pi * np.arange(self.points) / self.points

    def check_aliasing(self, mode_cutoff: int):
        # A full circle averages exactly from 4m+1 points on (see the module
        # docstring); a short arc is never exact and warns below 2m+1.  The
        # warning names the line that called a public builder, which called
        # `_rotation_average`, which called this.
        needed = (4 if self.arc == 1.0 else 2) * mode_cutoff + 1
        if self.points < needed:
            warnings.warn(
                f"grid of {self.points} points under-resolves modes up to "
                f"{mode_cutoff}; aliasing may distort the group average",
                stacklevel=4,
            )


def _rotation_phases(x: float, m: int) -> np.ndarray:
    return np.exp(1j * x * np.arange(-m, m + 1))


def rotation_unitary(x: float, m: int) -> np.ndarray:
    """Diagonal unitary with entries e^(i x k), k = -m..m."""
    return np.diag(_rotation_phases(x, m))


def fourier_profile(m: int, decay: float = PROFILE_DECAY) -> FourierVector:
    """Geometric-decay profile c_k ∝ decay^|k|, all coefficients positive."""
    if m < 0:
        raise ValidationError(f"mode cutoff m must be >= 0, got {m}")
    if not 0.0 < decay <= 1.0:
        raise ValidationError(f"decay must lie in (0,1], got {decay}")
    c = decay ** np.abs(np.arange(-m, m + 1)).astype(float)
    return FourierVector(c / np.linalg.norm(c), m)


def orthogonal_fourier_family(k: int, m: int, decay: float = PROFILE_DECAY,
                              seed: int = 0) -> list[FourierVector]:
    """k orthonormal vectors, every mode coefficient nonzero.

    Gram-Schmidt over the decay profile modulated by the k lowest discrete
    Fourier phases; if orthogonalization drives some coefficient under the
    floor, the phases are randomized and the construction retried.
    """
    dim = 2 * m + 1
    if k < 1:
        raise ValidationError(f"family size must be >= 1, got {k}")
    profile = fourier_profile(m, decay).coefficients
    if k > dim:
        raise ValidationError(f"family size {k} exceeds dimension {dim}")
    idx = np.arange(dim)
    for attempt in range(FAMILY_RETRIES + 1):
        columns = np.empty((dim, k), dtype=np.complex128)
        for j in range(k):
            phases = 2.0 * np.pi * j * idx / dim
            if attempt > 0:
                rng = rng_for(seed, f"fourier_family/{attempt}/{j}")
                phases = phases + rng.uniform(0.0, 2.0 * np.pi, size=dim)
            columns[:, j] = profile * np.exp(1j * phases)
        q, r = np.linalg.qr(columns)
        diag = np.diagonal(r).copy()
        diag /= np.abs(diag)
        q = q * diag  # pin phases so column 0 is the profile itself
        if np.min(np.abs(q)) >= NONVANISHING_FLOOR:
            return [FourierVector(q[:, j] / np.linalg.norm(q[:, j]), m)
                    for j in range(k)]
    raise ValidationError(
        f"could not build {k} nonvanishing orthogonal vectors at m={m} "
        f"within {FAMILY_RETRIES} retries"
    )


def build_rotation_state(phi1: FourierVector, phi2: FourierVector,
                         grid: RotationGrid) -> DensityMatrix:
    """Grid average of rotated product states (separable by construction).

    The k = 1 case of `build_sn_k_state`: each grid point x contributes the
    product state (V_x phi1) ⊗ (V_x phi2) with weight 1/N, and the
    generating ensemble is attached to the result.
    """
    return _rotation_average([phi1], [phi2], grid)


def build_sn_k_state(left: Sequence[FourierVector], right: Sequence[FourierVector],
                     grid: RotationGrid) -> DensityMatrix:
    """Grid average of rotated copies of the rank-k entangled seed vector.

    The seed is (1/sqrt(k)) sum_i left_i ⊗ right_i ⊗ |i>, rotated by
    V_x ⊗ V_x ⊗ I over the grid (use arc = 1/n for the short-arc family).
    The result is declared bipartite as H1 versus H2 ⊗ K, so every
    generating member has Schmidt rank exactly k.  At k = 1 the ancilla K
    is one-dimensional and this is the rotation state.
    """
    return _rotation_average(left, right, grid)


def _rotation_average(left: Sequence[FourierVector], right: Sequence[FourierVector],
                      grid: RotationGrid) -> DensityMatrix:
    # The member loop of both public builders.  Each calls it directly, so
    # the aliasing warning names the line that called the builder.
    k = len(left)
    if k < 1 or len(right) != k:
        raise ValidationError("need k >= 1 vector pairs, one per seed term")
    m = left[0].mode_cutoff
    if any(v.mode_cutoff != m for v in list(left) + list(right)):
        raise ValidationError("all vectors must share one mode cutoff")
    for family, name in ((left, "left"), (right, "right")):
        stack = np.stack([v.coefficients for v in family], axis=1)
        gram = stack.conj().T @ stack
        off = np.max(np.abs(gram - np.eye(k)))
        if off > 1e-8:
            raise ValidationError(
                f"{name} family is not orthonormal (deviation {off:.3e})"
            )
    grid.check_aliasing(m)
    d = 2 * m + 1
    dims = BipartiteDims(d, d * k)
    weight = 1.0 / grid.points
    basis = np.eye(k, dtype=np.complex128)
    members = []
    for x in grid.xs():
        phases = _rotation_phases(x, m)
        vec = np.zeros(dims.total, dtype=np.complex128)
        for i in range(k):
            vec += np.kron(phases * left[i].coefficients,
                           np.kron(phases * right[i].coefficients, basis[i]))
        members.append((weight, PureState.normalized(vec, dims)))
    return DensityMatrix.from_ensemble(members)


def isotropic_state(d: int, fidelity: float) -> DensityMatrix:
    """F * P_max + (1-F) * (I - P_max) / (d^2 - 1) on d ⊗ d."""
    if not 0.0 <= fidelity <= 1.0:
        raise ValidationError(f"fidelity must lie in [0,1], got {fidelity}")
    if d < 2:
        raise ValidationError("isotropic family needs d >= 2")
    p_max = maximally_entangled(d).projector()
    rest = (np.eye(d * d) - p_max) / (d * d - 1)
    return DensityMatrix(fidelity * p_max + (1.0 - fidelity) * rest,
                         BipartiteDims(d, d))


def isotropic_threshold(d: int, k: int) -> float:
    """Fidelity where the Lambda-map lower bound first exceeds k (bisection).

    The exact crossing for this family is F = k/d; the bisection reads it
    off the implemented bound rather than the closed form, and stops once
    its bracket is at most THRESHOLD_TOL wide.
    """
    if not 1 <= k < d:
        raise ValidationError(f"threshold defined for 1 <= k < d, got k={k}, d={d}")

    def detected(fidelity: float) -> bool:
        lower, _ = schmidt.sn_lower_bound(isotropic_state(d, fidelity))
        return lower >= k + 1

    lo, hi = 0.0, 1.0
    if not detected(hi):
        raise ValidationError(f"no detection at F=1 for k={k}, d={d}")
    while hi - lo > THRESHOLD_TOL:
        mid = 0.5 * (lo + hi)
        if detected(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def rotation_erosion_sweep(m: int, grids: Sequence[int], decay: float = PROFILE_DECAY,
                           samples: int = 200, seed: int = 0) -> list[dict]:
    """Max product-state subtraction weight per grid refinement level.

    For each grid size N the sweep builds the rotation state and reports
    the largest weight of any optimized product state that can be removed
    while keeping the state positive, next to the best generating member's
    weight.  On the full circle the grid state is the exact group average
    from N = 4m+1 points on, so the rows stop changing there; the finite
    fingerprint of the continuum state's immunity to such subtractions is
    the weight eroding as the mode cutoff m grows, not as N grows.  A
    negative `samples` is refused before any state is built.
    """
    if samples < 0:
        raise ValidationError(f"sample count must be >= 0, got {samples}")
    phi = fourier_profile(m, decay)
    rows = []
    # The list validates every grid before the first state is built.
    for grid in [RotationGrid(points=n_points) for n_points in grids]:
        state = build_rotation_state(phi, phi, grid)
        # One spectral split serves the search and the member weights.
        spectral = linalg.support_kernel(state.matrix)[:2]
        _, admitted = schmidt._subtractable_candidates(
            state.matrix, spectral, state.dims, 1, samples,
            derive_seed(seed, f"erosion/{grid.points}"),
        )
        # Only the heaviest weight that holds the eigenvalue floor is needed,
        # so each walk stops there.  The generating members are themselves
        # subtractable product states; the optimizer must do at least that well.
        lam = next(admitted, (0.0,))[0]
        members = np.stack([psi.amplitudes for _, psi in state.ensemble])[:, :, None]
        member_best = next(schmidt._admitted(state.matrix, spectral, members), (0.0,))[0]
        rows.append({
            "grid": int(grid.points),
            "max_subtraction": max(lam, member_best),
            "optimized": lam,
            "member_best": member_best,
        })
    return rows
