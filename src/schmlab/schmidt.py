"""Schmidt-number certification.

Upper bounds come from explicit convex decompositions (eigen-ensemble,
attached generating ensembles, and randomized remixing of the eigenbasis);
lower bounds from the canonical one-parameter family of k-positive maps
Lambda_t(rho) = Tr(rho) I - t rho, which is k-positive exactly for
t <= 1/k.  The module also builds kernel-projector Schmidt witnesses and
runs the edge-state decomposition: the exact remix first, then greedy
subtraction.

The lower bound is sound but incomplete: it exhausts one map family, not
all k-positive maps, so `lower <= SN <= upper` always, with equality not
guaranteed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import ValidationError, WitnessDegenerateError
from .linalg import BipartiteDims
from .sampling import derive_seed, random_sr_amplitudes, rng_for
from .states import MEMBER_FLOOR, DensityMatrix, Ensemble, PureState, schmidt_rank

# Eigenvalue below -CERT_MARGIN counts as a certified positivity violation.
CERT_MARGIN = 1e-9

# Shift for the shift-and-invert descent of `_overlap_descent`.
OVERLAP_SHIFT = 1e-3

# Iterations one remix trial may polish before it counts as capped.
REMIX_CAP = 10000
REMIX_STATUSES = ("converged", "stalled", "capped")

# Differences of kept (point, plain step) pairs that an `_AndersonRows` row
# mixes; a row mixes once it has kept one point more than this in a row.
ANDERSON_DEPTH = 5


def _schmidt_factors(stack: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank-r Schmidt factors of a (..., dA, dB) stack of coefficient matrices.

    ``a @ bh`` is the best Schmidt rank <= r approximation of each matrix:
    ``a`` holds the leading left singular vectors scaled by their singular
    values and ``bh`` the matching right singular rows, so the pair also
    seeds the seesaw's A and B frames directly.
    """
    u, s, vh = np.linalg.svd(stack, full_matrices=False)
    return u[..., :r] * s[..., None, :r], vh[..., :r, :]


# ---------------------------------------------------------------------------
# Lambda-map lower bound
# ---------------------------------------------------------------------------

def lambda_map(rho, t: float) -> np.ndarray:
    """Lambda_t(rho) = Tr(rho) I - t rho on a single system."""
    rho = linalg.as_matrix(rho, "rho")
    if rho.shape[0] != rho.shape[1]:
        raise ValidationError(f"rho must be square, got {rho.shape}")
    return np.trace(rho) * np.eye(rho.shape[0]) - t * rho


def apply_lambda_on_b(matrix: np.ndarray, dims: BipartiteDims, t: float) -> np.ndarray:
    """(Id_A ⊗ Lambda_t)(omega) = (Tr_B omega) ⊗ I_B - t omega."""
    reduced = linalg.partial_trace(matrix, dims, "B")
    return np.kron(reduced, np.eye(dims.dimB)) - t * matrix


@dataclass(frozen=True)
class LambdaEvidence:
    """Violation record for the lower bound: parameter and eigenvalue."""

    t: float
    eigenvalue: float


def _check_budget(budget: int) -> None:
    """Refuse a negative search budget; 0 means no search."""
    if budget < 0:
        raise ValidationError(f"search budget must be >= 0, got {budget}")


def sn_lower_bound(omega: DensityMatrix) -> tuple[int, Optional[LambdaEvidence]]:
    """Largest k+1 with (Id ⊗ Lambda_{1/k})(omega) negative; 1 if none.

    The scan over k = 1 .. min(dim)-1 is monotone: the violation eigenvalue
    is nondecreasing in k, so it stops at the first non-violation.
    """
    best: Optional[tuple[int, float]] = None
    for k in range(1, omega.dims.min_dim):
        ev = linalg.min_eigenvalue(apply_lambda_on_b(omega.matrix, omega.dims, 1.0 / k))
        if ev < -CERT_MARGIN:
            best = (k, ev)
        else:
            break
    if best is None:
        return 1, None
    k, ev = best
    return k + 1, LambdaEvidence(t=1.0 / k, eigenvalue=ev)


# ---------------------------------------------------------------------------
# Decomposition upper bound
# ---------------------------------------------------------------------------

def eigen_ensemble(omega: DensityMatrix) -> Ensemble:
    """Spectral decomposition as an ensemble of eigenvectors."""
    vals, vecs = linalg.eigh(omega.matrix)
    keep = vals > 1e-12
    weights = vals[keep]
    weights = weights / weights.sum()
    members = []
    for w, idx in zip(weights, np.nonzero(keep)[0]):
        members.append((float(w), PureState.normalized(vecs[:, idx], omega.dims)))
    return tuple(members)


def ensemble_max_sr(members: Sequence[tuple[float, PureState]]) -> int:
    return max(schmidt_rank(psi) for _, psi in members)


def _exact_ensemble(omega: DensityMatrix, cols: np.ndarray,
                    target: int) -> Optional[DensityMatrix]:
    """omega with the members of `cols`, truncated to Schmidt rank `target`, attached.

    The truncated members have rank at most `target` exactly; omega with
    them attached is returned only if they reconstruct omega within the
    trace distance every attached ensemble must meet, else None.
    """
    dims = omega.dims
    a, bh = _schmidt_factors(cols.T.reshape(-1, dims.dimA, dims.dimB), target)
    members = (a @ bh).reshape(cols.shape[1], -1)
    weights = np.linalg.norm(members, axis=1) ** 2
    keep = weights > MEMBER_FLOOR
    total = weights[keep].sum()
    ensemble = [(w / total, PureState.normalized(m, dims))
                for w, m in zip(weights[keep], members[keep])]
    try:
        return omega.with_ensemble(ensemble)
    except ValidationError:  # the rebuild misses omega by more than 1e-8
        return None


class _AndersonRows:
    """Safeguarded Anderson mixing of a stack of fixed-point rows.

    Each row of an (n, m) stack iterates a caller's plain step g toward a
    fixed point, and the engine mixes it (Walker & Ni, SIAM J. Numer. Anal.
    49, 2011).  It holds each row's kept point, that point's value, plain
    step and residual, and the row's next proposal `point`.  A row that has
    kept `ANDERSON_DEPTH + 1` points in a row proposes the mix of their last
    `ANDERSON_DEPTH` differences of ``(x, g(x))``, retracted by the caller;
    any other row proposes its kept point's plain step.  `judge` always
    keeps a plain proposal and keeps a mixed one only if its value is
    strictly below the kept value; a refused row drops its history.  So
    the kept values never rise beyond what the plain step allows.  The
    mixing weights solve normal equations with a ridge of 1e-10 of the Gram
    trace, one stacked solve for every mixing row, so each row gives the
    same bits as a stack of it alone.  When every row kept its proposal, or
    every row mixes, the engine takes whole stacks instead of masked rows.

    Each iteration the caller values `point`, passes the values to `judge`,
    may `drop` the rows its own rules stop, and hands `advance` the plain
    steps of the rows that kept their points, with its retraction.  Rows
    start at a kept point with its value, and their first proposal is that
    point's plain step `step`; a caller that judges its start first passes
    the start as both `kept` and `step`.
    """

    EYE = np.eye(ANDERSON_DEPTH)
    TINY = np.finfo(float).tiny

    def __init__(self, kept: np.ndarray, value: np.ndarray, step: np.ndarray):
        n = len(kept)
        self.index = np.arange(n)  # each live row's index into the first stack
        self.kept, self.value, self.step, self.point = kept, value, step, step
        self.res = step - kept  # the kept point's residual g(x) - x
        self.keep = np.ones(n, dtype=bool)  # the last judged proposal was kept
        self.kept_all = True  # ... by every row
        self.mixed = np.zeros(n, dtype=bool)  # `point` is a mix
        self.streak = np.zeros(n, dtype=int)  # points kept since the last drop
        # The last ANDERSON_DEPTH differences of kept residuals and of plain
        # steps, oldest first; a row mixes only once they are all its own.
        self.d_res = np.zeros((n, ANDERSON_DEPTH, kept.shape[1]), dtype=complex)
        self.d_g = self.d_res

    def judge(self, value: np.ndarray) -> np.ndarray:
        """Which rows keep their proposals, valued `value`."""
        self.keep = keep = ~self.mixed | (value < self.value)
        self.kept_all = np.count_nonzero(keep) == len(keep)
        self.streak += 1
        if self.kept_all:
            self.value = value
        else:
            self.streak[~keep] = 0
            self.value = np.where(keep, value, self.value)
        return keep

    def drop(self, going: np.ndarray, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
        """Keep only the rows `going`, and cut the caller's `arrays` to them."""
        for name in ("index", "kept", "value", "step", "res", "point", "keep", "mixed",
                     "streak", "d_res", "d_g"):
            setattr(self, name, getattr(self, name)[going])
        self.kept_all = np.count_nonzero(self.keep) == len(self.keep)
        return tuple(a[going] for a in arrays)

    def advance(self, plain: np.ndarray, retract) -> None:
        """Take the judged points and propose the next ones.

        `plain` holds the plain steps of the kept proposals, in row order;
        `retract` maps a (rows, m) stack of mixes back onto the caller's set.
        """
        if self.kept_all:
            kept, step = self.point, plain.reshape(self.point.shape)
        else:
            kept = np.where(self.keep[:, None], self.point, self.kept)
            step = self.step.copy()
            step[self.keep] = plain.reshape(-1, step.shape[1])
        res = step - kept
        self.d_res = np.concatenate([self.d_res[:, 1:], (res - self.res)[:, None]], axis=1)
        self.d_g = np.concatenate([self.d_g[:, 1:], (step - self.step)[:, None]], axis=1)
        self.kept, self.step, self.res = kept, step, res
        self.mixed = mixed = self.streak > ANDERSON_DEPTH
        self.point = step
        mixing = np.count_nonzero(mixed)
        if not mixing:
            return
        d_res, d_g = self.d_res, self.d_g
        if mixing < len(mixed):
            d_res, d_g, res, step = d_res[mixed], d_g[mixed], res[mixed], step[mixed]
        d_res_h = d_res.conj()
        gram = d_res_h @ d_res.transpose(0, 2, 1)
        ridge = 1e-10 * gram.trace(axis1=1, axis2=2).real + self.TINY
        gamma = np.linalg.solve(gram + ridge[:, None, None] * self.EYE,
                                d_res_h @ res[..., None])
        mix = retract((step[..., None] - d_g.transpose(0, 2, 1) @ gamma)[..., 0])
        if mixing < len(mixed):
            self.point = self.step.copy()
            self.point[mixed] = mix
        else:
            self.point = mix


def _remix_polish(factor: np.ndarray, dims: BipartiteDims, target: int, seed: int,
                  trials: Sequence[int], cap: int) -> list[tuple[np.ndarray, str, int]]:
    """Polish one size group of remix trials toward Schmidt rank `target`.

    Returns ``(cols, status, iterations)`` per trial: the (dims.total, size)
    member columns and why the row stopped after that many iterations.
    "converged": every member's Schmidt tail beyond `target`, relative to
    its norm, is below 1e-10; members the exact acceptance drops are left
    out.  "stalled": the last step moved the columns by less than 1e-12, or
    the largest tail fell by less than 10 % over the last 100 iterations.
    "capped": the row ran `cap` iterations.

    A row is a co-isometry U with member columns ``factor @ U``.  Its plain
    step g(U) truncates the members to rank `target` and refits U to them by
    orthogonal Procrustes.  That is an alternating projection, so it never
    raises the total tail: the sum over members of their squared singular
    values beyond `target`.  `_AndersonRows` mixes the rows on that value,
    and projects each mix back to a co-isometry with one polar SVD; a row
    whose mix it refuses takes no Procrustes refit that iteration.  The
    returned columns are the last kept point's, and every evaluation counts
    as an iteration.  Trial t has ``size = rank + t % (rank + 1)`` members,
    and `trials` is one size group (trials ``rank + 1`` apart), which
    polishes as the rows of one stack.  Each row stops on its own, so every
    row gives the same bits as polishing that trial alone.
    """
    rank = factor.shape[1]
    size = rank + trials[0] % (rank + 1)
    factor_h = factor.conj().T
    polished = [None] * len(trials)

    def polar(mix):
        u, _, vh = np.linalg.svd(mix.reshape(len(mix), rank, -1), full_matrices=False)
        return (u @ vh).reshape(len(mix), -1)

    draws = []
    for trial in trials:
        rng = rng_for(seed, f"sn_upper/remix/{trial}")
        draws.append(rng.normal(size=(size, rank)) + 1j * rng.normal(size=(size, rank)))
    # rank x size co-isometries, co_iso @ co_iso† = I; the first
    # proposal is each row's draw itself.
    start = np.linalg.qr(np.stack(draws))[0].conj().transpose(0, 2, 1)
    cols = factor @ start
    start = start.reshape(len(trials), -1)
    rows = _AndersonRows(start, np.zeros(len(trials)), start)
    kept_cols, largest = cols, np.zeros(len(trials))
    checkpoint = np.full(len(trials), np.inf)
    settled = np.zeros(len(trials), dtype=bool)
    for done in range(cap):
        u, s, vh = np.linalg.svd(
            cols.transpose(0, 2, 1).reshape(-1, dims.dimA, dims.dimB),
            full_matrices=False)
        s2 = (s * s).reshape(len(cols), size, -1)
        tail2 = np.add.reduce(s2[..., target:], axis=2)
        keep = rows.judge(np.add.reduce(tail2, axis=1))
        # The acceptance drops members of weight <= MEMBER_FLOOR after
        # truncation; they count as converged.
        ratio = np.divide(tail2, np.add.reduce(s2, axis=2), out=np.zeros(tail2.shape),
                          where=np.add.reduce(s2[..., :target], axis=2) > MEMBER_FLOOR)
        if rows.kept_all:
            largest, kept_cols = np.maximum.reduce(ratio, axis=1), cols
        else:
            largest = np.where(keep, np.maximum.reduce(ratio, axis=1), largest)
            kept_cols = np.where(keep[:, None, None], cols, kept_cols)
        converged, stalled = largest < 1e-20, settled
        if done % 100 == 0:
            stalled = stalled | (largest > 0.81 * checkpoint)
            checkpoint = largest
        truncated = ((u[..., :target] * s[..., None, :target]) @ vh[..., :target, :]
                     ).reshape(len(cols), size, -1).transpose(0, 2, 1)
        stop = converged | stalled | (done + 1 >= cap)
        if np.count_nonzero(stop):
            for i in np.flatnonzero(stop):
                status = 0 if converged[i] else 1 if stalled[i] else 2
                polished[rows.index[i]] = (kept_cols[i], REMIX_STATUSES[status], done + 1)
            if stop.all():
                break
            truncated, kept_cols, largest, checkpoint = rows.drop(
                ~stop, truncated, kept_cols, largest, checkpoint)
        if not rows.kept_all:
            truncated = truncated[rows.keep]
        u, _, vh = np.linalg.svd(factor_h @ truncated, full_matrices=False)
        rows.advance(u @ vh, polar)
        cols = factor @ rows.point.reshape(-1, rank, size)
        moved = cols - kept_cols
        settled = np.sqrt(np.add.reduce((moved.conj() * moved).real, axis=(1, 2))) < 1e-12
    return polished


def _eigen_factor(rho: DensityMatrix) -> np.ndarray:
    """M with M M† = rho, from the eigenvectors of nonzero eigenvalues."""
    vals, vecs = linalg.eigh(rho.matrix)
    rank = max(1, int(np.count_nonzero(vals > 1e-12)))
    return vecs[:, :rank] * np.sqrt(np.clip(vals[:rank], 0.0, None))


def _remix_search(omega: DensityMatrix, factor: np.ndarray, target: int, seed: int,
                  share: int) -> tuple[Optional[DensityMatrix], int]:
    """Remix trials at one target rank until one is exact or `share` is spent.

    Trials start at 0 and are taken in index-ordered chunks of 1, 2, 4, ...
    up to 64, each row capped at `REMIX_CAP` iterations or at what was left
    of the share when its chunk began, whichever is less.  Results are read
    in trial order and charged their iterations until the share is spent.
    The trials of a chunk that share a size polish together as one stack
    (`_remix_polish`), but only once the next trial to read is one of them:
    no size group whose first trial comes after the winner, or after the
    share is spent, is polished.  A converged trial is accepted if its
    members, truncated to rank `target` and renormalized, rebuild omega
    within trace distance 1e-8; the first accepted trial wins, so its
    members have Schmidt rank <= target exactly and a fixed seed always
    gives the same result.  `factor` is ``_eigen_factor(omega)``.  Returns
    omega with the accepted ensemble attached, or None, and the
    row-iterations charged.
    """
    sizes = factor.shape[1] + 1  # trials t and t + sizes polish as the same size
    used, start, chunk = 0, 0, 1
    while used < share:
        trials = range(start, start + chunk)
        start, chunk = trials.stop, min(2 * chunk, 64)
        cap, polished = min(REMIX_CAP, share - used), {}
        for trial in trials:
            if trial not in polished:
                group = range(trial, trials.stop, sizes)
                polished.update(zip(group, _remix_polish(factor, omega.dims, target, seed,
                                                         group, cap)))
            cols, status, iters = polished[trial]
            exact = _exact_ensemble(omega, cols, target) if status == "converged" else None
            if exact is not None:
                return exact, used
            used += iters
            if used >= share:
                break
    return None, used


def sn_upper_bound(omega: DensityMatrix, budget: int = 500, seed: int = 0,
                   floor: int = 1) -> tuple[int, Ensemble]:
    """Best decomposition found: (max member Schmidt rank, ensemble).

    Candidates: the eigen-ensemble and any ensemble attached to the state;
    the better of them sets `best_k`.  Then the remix searches for an exact
    decomposition at each target rank from `max(1, floor)` up to
    `best_k - 1`, in ascending order, where `floor` is a known lower bound
    on the Schmidt number (no target below it can succeed).  A remix trial
    draws a Haar co-isometry U (all ensembles of a state arise this way) and
    then alternates SVD truncation of the members with an
    orthogonal-Procrustes refit, steering the ensemble toward members of
    Schmidt rank <= target while reconstructing omega exactly.  The
    alternation is Anderson-mixed and safeguarded (`_remix_polish`), so a
    trial that converges does so in tens to hundreds of iterations.

    The search spends `budget * 60` row-iterations.  Each target gets the
    budget left divided by the number of targets left, and `_remix_search`
    spends that share: the first exact trial wins, so its members have
    Schmidt rank <= target exactly and a fixed seed always gives the same
    result.  A budget of 0 runs no search, and a negative one is refused.
    """
    _check_budget(budget)
    candidates: list[Ensemble] = [eigen_ensemble(omega)]
    if omega.ensemble is not None:
        candidates.append(omega.ensemble)

    best_ens = min(candidates, key=ensemble_max_sr)
    best_k = ensemble_max_sr(best_ens)
    if best_k <= max(1, floor) or budget <= 0:
        return best_k, best_ens

    factor = _eigen_factor(omega)
    targets = range(max(1, floor), best_k)
    left = budget * 60
    for target in targets:
        exact, used = _remix_search(omega, factor, target, seed,
                                    left // (targets.stop - target))
        if exact is not None:
            return target, exact.ensemble
        left -= used
    return best_k, best_ens


@dataclass(frozen=True)
class SchmidtCertificate:
    """Two-sided Schmidt number certificate.

    The lower bound is sound by construction and the upper bound rests on
    an explicit decomposition, so ``lower <= SN(state) <= upper``.  A false
    ``consistent`` flag means ``upper < lower``: one of the bounds is
    unsound, which is never hidden.  A search that stopped above the
    certified floor shows up as ``upper > lower`` with ``consistent`` true.
    """

    lower: int
    upper: int
    lower_evidence: Optional[LambdaEvidence]
    upper_evidence: Ensemble
    consistent: bool


def certify(omega: DensityMatrix, budget: int = 500, seed: int = 0) -> SchmidtCertificate:
    """Run both bounds and assemble the certificate; see `sn_upper_bound` for `budget`."""
    _check_budget(budget)
    lower, evidence = sn_lower_bound(omega)
    upper, ensemble = sn_upper_bound(omega, budget=budget, seed=seed, floor=lower)
    return SchmidtCertificate(
        lower=lower,
        upper=upper,
        lower_evidence=evidence,
        upper_evidence=ensemble,
        consistent=lower <= upper,
    )


# ---------------------------------------------------------------------------
# Minimal overlap of bounded-Schmidt-rank states with a PSD operator
# ---------------------------------------------------------------------------

# Every search takes its operator P as a form ``(c, s, e)``:
# P = c (I - S S†) + S diag(e) S†, where S = `s` has orthonormal columns.
# A kernel projector is ``(1, support, 0)``, so no search builds P densely.

def _overlaps(form: tuple, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """<v|P|v> and S†v for each row of an (n, total) stack, P given as a form.

    The value is read as ``c ||v - S S†v||^2 + sum(e |S†v|^2)``, so a row
    that lies nearly inside S keeps the precision of its small mass outside
    it.  Each row takes its own products, so it has the bits of a stack of
    it alone.
    """
    c, s, e = form
    inside = s.conj().T @ vecs[..., None]
    outside = vecs - (s @ inside)[..., 0]
    inside = inside[..., 0]
    return (c * np.einsum("ij,ij->i", outside.conj(), outside).real
            + np.einsum("ij,ij->i", inside.conj() * e, inside).real), inside


def _frame_forms(form: tuple, frames: np.ndarray, side: np.ndarray) -> np.ndarray:
    """Quadratic forms of P restricted to a stack of orthonormal side frames.

    `side` is the form's S as (d, f*k) over (frame index, free index and
    column of S) and `frames` an (n, d, r) stack with orthonormal columns.
    Row n of the result is the (r*f, r*f) form over (frame column, free
    index) pairs, ``c I + G diag(e - c) G†`` with ``G[l, x] = sum_i
    conj(frames[n, i, l]) side[i, x]``.  G and the form take one product
    per row each, so each row has the bits of a stack of it alone.
    """
    c, _, e = form
    g = (frames.conj().transpose(0, 2, 1) @ side).reshape(len(frames), -1, len(e))
    return (g * (e - c)) @ g.conj().transpose(0, 2, 1) + c * np.eye(g.shape[1])


def _seesaw_min_overlap(form: tuple, dims: BipartiteDims, b: np.ndarray,
                        sweeps: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact alternating minimization of <phi|P|phi> over Schmidt rank <= r.

    With one side's frame held orthonormal, the optimal other side is the
    bottom eigenvector of a contracted (r*d)-dimensional quadratic form, so
    every sweep is a pair of exact eigenproblems; at r = min(dimA, dimB)
    one sweep solves the full eigenproblem of P.  P is a form and `b` an
    (n, dB, r) stack of starting B frames.  All starts descend together as
    rows: each sweep makes one batched QR, the batched products of
    `_frame_forms` and one batched `eigh` per side.  A row freezes once
    its value moves by less than 1e-12, and every row gives the same bits
    as a call on it alone.  Returns each row's value and unit vector phi.
    """
    dA, dB = dims.dimA, dims.dimB
    r = b.shape[2]
    # S laid out for each side's forms, that side's frame index first.
    for_a = form[1].reshape(dA, dB, -1).transpose(1, 0, 2).reshape(dB, -1)
    for_b = form[1].reshape(dA, -1)
    a = np.empty((len(b), dA, r), dtype=np.complex128)
    b = np.array(b, dtype=np.complex128)
    values = np.full(len(b), np.inf)
    active = np.arange(len(b))
    for _ in range(sweeps):
        # B orthonormal -> solve for the A-side stack.
        vecs = np.linalg.eigh(_frame_forms(form, np.linalg.qr(b[active])[0], for_a))[1]
        # A orthonormal -> solve for the B-side stack.
        oa = np.linalg.qr(vecs[:, :, 0].reshape(-1, r, dA).transpose(0, 2, 1))[0]
        vals, vecs = np.linalg.eigh(_frame_forms(form, oa, for_b))
        a[active] = oa
        b[active] = vecs[:, :, 0].reshape(-1, r, dB).transpose(0, 2, 1)
        moving = np.abs(vals[:, 0] - values[active]) >= 1e-12
        values[active] = vals[:, 0]
        active = active[moving]
        if active.size == 0:
            break
    phis = (a @ b.transpose(0, 2, 1)).reshape(len(b), -1)
    return values, phis / np.linalg.norm(phis, axis=1, keepdims=True)


def _overlap_descent(form: tuple, phis: np.ndarray, dims: BipartiteDims,
                     r: int) -> np.ndarray:
    """Anderson-mixed shift-and-invert descent of <phi|P|phi>, row by row.

    The plain step g(phi) applies ``(P + OVERLAP_SHIFT)^-1`` to the
    (n, dims.total) unit rows, truncates them to Schmidt rank `r` and
    renormalizes, so it pushes every row toward the bottom of P.  That
    inverse is the form ``(1 / (c + shift), S, 1 / (e + shift))``, applied
    by one product with S to the S†phi that valued phi.  `_AndersonRows`
    mixes the rows on <phi|P|phi> (`_overlaps`), and truncates and
    renormalizes each mix the same way.  A row stops once a kept point
    moves its value by less than 1e-14, or after 150 evaluations past its
    start; it returns its last kept point.  Every row gives the same bits
    as a call on it alone.
    """
    dA, dB = dims.dimA, dims.dimB
    c, s, e = form
    # The inverse as c' I + S diag(e' - c') S†.
    c_inv = 1.0 / (c + OVERLAP_SHIFT)
    d_inv = 1.0 / (e + OVERLAP_SHIFT) - c_inv

    def truncated(vecs):
        a, bh = _schmidt_factors(vecs.reshape(-1, dA, dB), r)
        vecs = (a @ bh).reshape(len(vecs), dims.total)
        return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)

    def plain(vecs, inside):
        return truncated(c_inv * vecs + (s @ (d_inv * inside)[..., None])[..., 0])

    out = np.array(phis, dtype=np.complex128)
    value, inside = _overlaps(form, out)
    rows = _AndersonRows(out.copy(), value, plain(out, inside))
    for _ in range(150):
        point_value, inside = _overlaps(form, rows.point)
        moved = np.abs(point_value - rows.value) >= 1e-14
        keep = rows.judge(point_value)
        out[rows.index[keep]] = rows.point[keep]
        going = ~keep | moved
        if not going.any():
            break
        (inside,) = rows.drop(going, inside)
        rows.advance(plain(rows.point[rows.keep], inside[rows.keep]), truncated)
    return out


def _minimize_overlap(form: tuple, starts: np.ndarray, dims: BipartiteDims, r: int,
                      descend: bool) -> tuple[np.ndarray, np.ndarray]:
    """Minimize <phi|P|phi> over Schmidt rank <= r from each row of a stack.

    Every overlap search runs here.  With `descend`, the unit rows of the
    (n, dims.total) stack first run the shift-and-invert descent of
    `_overlap_descent`; it can stop above the minimum, so every row is then
    finished by 80 sweeps of the exact seesaw `_seesaw_min_overlap`,
    started from its B factor.  Returns each row's value and unit vector;
    every row gives the same bits as a call on it alone.
    """
    if descend:
        starts = _overlap_descent(form, starts, dims, r)
    frames = _schmidt_factors(starts.reshape(-1, dims.dimA, dims.dimB), r)[1]
    return _seesaw_min_overlap(form, dims, frames.transpose(0, 2, 1), 80)


def _best_overlap(form: tuple, r: int, dims: BipartiteDims, label: str, count: int,
                  seed: int, descend: bool) -> tuple[float, PureState]:
    """First minimum of `_minimize_overlap` over `count` random starts.

    Start i is a random Schmidt-rank-r state drawn from its own stream
    ``rng_for(seed, f"{label}/{i}")``; all starts are drawn as one batch by
    `random_sr_amplitudes` and descend together as rows of one array.
    """
    starts = random_sr_amplitudes([rng_for(seed, f"{label}/{i}") for i in range(count)],
                                  dims, r)
    values, phis = _minimize_overlap(form, starts, dims, r, descend)
    best = int(np.argmin(values))  # first minimum: lowest start index
    return float(values[best]), PureState(phis[best], dims)


def _factored(p, r: int, dims: BipartiteDims) -> tuple:
    """The form ``(0, V, w)`` of a dense operator, from one `eigh`.

    This is the boundary check of both public overlap searches: it refuses
    a non-Hermitian `p`, one whose shape does not match `dims`, and a rank
    bound below 1.
    """
    p = linalg.hermitize(p)
    if p.shape[0] != dims.total:
        raise ValidationError(f"operator shape {p.shape} does not match dims {dims}")
    if r < 1:
        raise ValidationError(f"rank bound must be >= 1, got {r}")
    vals, vecs = np.linalg.eigh(p)
    return 0.0, vecs, vals


def min_overlap_grid(p, r: int, dims: BipartiteDims, samples: int = 200,
                     seed: int = 0) -> tuple[float, PureState]:
    """Grid + polish oracle for min <phi|P|phi> over Schmidt rank <= r.

    Random Schmidt-rank-r samples, each drawn from the stream
    ``rng_for(seed, f"min_overlap_grid/{i}")``, polished by the exact
    alternating minimization of `_seesaw_min_overlap` at every rank,
    independent of the shift-and-invert descent.  At r = 1
    `min_overlap_sr` runs the same seesaw, but from its own starts, so the
    two stay independent searches.  `p` is factored and checked as in
    `min_overlap_sr`.
    """
    if samples < 1:
        raise ValidationError(f"sample count must be >= 1, got {samples}")
    return _best_overlap(_factored(p, r, dims), r, dims, "min_overlap_grid", samples,
                         seed, False)


def min_overlap_sr(p, r: int, dims: BipartiteDims, restarts: int = 64,
                   seed: int = 0) -> tuple[float, PureState]:
    """epsilon = min <phi|P|phi> over pure phi with Schmidt rank <= r.

    `p` is factored once by one `eigh` into the form every search takes.
    Restart i starts from a random Schmidt-rank-r state drawn from its own
    stream ``rng_for(seed, f"min_overlap/{i}")``.  At r >= 2 the starts run
    the Anderson-mixed shift-and-invert descent, finished by 80 sweeps of
    the exact seesaw `_seesaw_min_overlap` from each row's B factor.  At
    r = 1 a seesaw sweep is just two eigenproblems of size dimA and dimB,
    which beats the descent, so the starts go straight into the seesaw.
    The first minimum over the finished rows wins.  The landscape is
    nonconvex; the result is the best local value found, reproducible for
    a fixed seed.  The witness and the subtraction search run the same
    minimizer, `_minimize_overlap`, on forms built from a support.
    """
    if restarts < 1:
        raise ValidationError(f"restart count must be >= 1, got {restarts}")
    return _best_overlap(_factored(p, r, dims), r, dims, "min_overlap", restarts, seed,
                         r > 1)


# ---------------------------------------------------------------------------
# Witness construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessOperator:
    """Hermitian witness with its construction recipe and detection margin."""

    matrix: np.ndarray
    order: int
    recipe: dict
    margin: float


def build_witness(delta: DensityMatrix, k: int, seed: int = 0) -> WitnessOperator:
    """Kernel-projector witness W = P - eps I of order k.

    P projects onto the kernel of `delta` and eps is the minimal overlap of
    Schmidt-rank <= k-1 pure states with P.  Then Tr(W sigma) >= 0 on the
    whole order-(k-1) Schmidt class while Tr(W delta) = -eps < 0
    (Sanpera, Bruss & Lewenstein, PRA 63, 050301 (2001)).  When the support
    of `delta` is one vector psi, P = I - |psi><psi| and eps has a closed
    form: 1 minus the k-1 largest squared Schmidt coefficients of psi, met
    by psi's own rank-(k-1) truncation (Terhal & Horodecki, PRA 61, 040301
    (2000)), so no search runs.  Otherwise eps comes from the search of
    `min_overlap_sr`, run on P through delta's support S as the form
    ``(1, S, 0)``, that is P = I - S S†.
    """
    if k < 2:
        raise ValidationError(f"witness order must be >= 2, got {k}")
    dims = delta.dims
    support, _, kernel = linalg.support_kernel(delta.matrix)
    if kernel.shape[1] == 0:
        raise ValidationError("delta has full rank; kernel-projector witness needs a kernel")
    proj = kernel @ kernel.conj().T

    if support.shape[1] == 1:
        a, bh = _schmidt_factors(support[:, 0].reshape(dims.dimA, dims.dimB), k - 1)
        best = (a @ bh).reshape(-1)
        norm = np.linalg.norm(best)
        epsilon = float(1.0 - norm ** 2)
        argmin = PureState(best / norm, dims)
    else:
        epsilon, argmin = _best_overlap((1.0, support, np.zeros(support.shape[1])), k - 1,
                                        dims, "min_overlap", 64, seed, k > 2)
    if epsilon <= CERT_MARGIN:
        raise WitnessDegenerateError(
            f"minimal kernel overlap {epsilon:.3e} is below the certification floor; "
            "low-Schmidt-rank states approach the kernel of delta",
            residual=epsilon,
        )
    w = proj - epsilon * np.eye(dims.total)
    margin = float(np.trace(w @ delta.matrix).real)
    recipe = {
        "kind": "kernel_projector",
        "P": proj,
        "epsilon": float(epsilon),
        "seed": int(seed),
        "argmin": argmin.amplitudes,
    }
    return WitnessOperator(matrix=w, order=k, recipe=recipe, margin=margin)


def witness_from_lambda(omega: DensityMatrix) -> Optional[WitnessOperator]:
    """Witness (Id ⊗ Lambda_t)(|v><v|) from the lower-bound violation.

    Returns None when the Lambda family detects nothing.  The map is
    self-adjoint, so Tr(W omega) equals the violating eigenvalue.
    """
    lower, evidence = sn_lower_bound(omega)
    if evidence is None:
        return None
    out = apply_lambda_on_b(omega.matrix, omega.dims, evidence.t)
    _, vecs = linalg.eigh(out)
    v = vecs[:, -1]
    w = apply_lambda_on_b(np.outer(v, v.conj()), omega.dims, evidence.t)
    recipe = {"kind": "lambda_map", "t": evidence.t}
    return WitnessOperator(matrix=linalg.hermitize(w), order=lower,
                           recipe=recipe, margin=evidence.eigenvalue)


# ---------------------------------------------------------------------------
# Subtraction and the edge decomposition
# ---------------------------------------------------------------------------

def _unchecked_weights(spectral: tuple[np.ndarray, np.ndarray],
                       factors: np.ndarray) -> np.ndarray:
    """Largest lam >= 0 with ``matrix - lam F F†`` PSD on paper, for each F of a stack.

    `factors` is an (n, total, m) stack and `spectral` is ``(support,
    values)`` of the matrix: orthonormal support columns and their
    eigenvalues.  A factor whose mass outside the support exceeds
    `linalg.RANK_CUTOFF` of its total gets 0.  Otherwise lam is
    1 / lambda_max(F† matrix^+ F), which for a unit vector phi is
    1/<phi|matrix^+|phi> (Lewenstein & Sanpera, PRL 80, 2261 (1998)); one
    batched `eigvalsh` serves the whole stack.  No weight is checked
    against the exact eigenvalue floor yet: see `_floor_holds`.
    """
    support, vals = spectral
    inside = support.conj().T @ factors
    mass = np.sum(np.abs(factors) ** 2, axis=(1, 2))
    leak = mass - np.sum(np.abs(inside) ** 2, axis=(1, 2))
    inside[leak > linalg.RANK_CUTOFF * np.maximum(mass, 1e-30)] = 0.0
    scaled = inside / np.sqrt(vals)[:, None]
    top = np.linalg.eigvalsh(scaled.conj().transpose(0, 2, 1) @ scaled)[:, -1]
    return np.divide(1.0, top, out=np.zeros_like(top), where=top > 1e-300)


def _floor_holds(matrix: np.ndarray, weight: float, factor: np.ndarray) -> bool:
    """Whether ``matrix - weight F F†`` keeps every eigenvalue above -CERT_MARGIN."""
    return not linalg.min_eigenvalue(matrix - weight * (factor @ factor.conj().T)) < -CERT_MARGIN


def _subtraction_weights(matrix: np.ndarray, spectral: tuple[np.ndarray, np.ndarray],
                         factors: np.ndarray) -> np.ndarray:
    """Largest lam >= 0 with ``matrix - lam F F†`` PSD, for each F of a stack.

    The weights of `_unchecked_weights`, each positive one then checked
    against the exact eigenvalue floor: one whose remainder has an
    eigenvalue below -CERT_MARGIN gets 0.
    """
    weights = _unchecked_weights(spectral, factors)
    for i in np.flatnonzero(weights):
        if not _floor_holds(matrix, weights[i], factors[i]):
            weights[i] = 0.0
    return weights


def _admitted(matrix: np.ndarray, spectral: tuple[np.ndarray, np.ndarray],
              factors: np.ndarray):
    """Yield ``(weight, index)`` for each F of a stack whose weight holds the floor.

    One `_unchecked_weights` call weighs the stack.  The positive weights
    are walked heaviest first, the lowest index first among equal ones, and
    each is floor-checked (`_floor_holds`) only when the caller asks for the
    next admitted row, so a caller that stops early checks nothing lighter.
    The rows yielded are those `_subtraction_weights` keeps, in that order:
    the first is its first maximum.
    """
    weights = _unchecked_weights(spectral, factors)
    order = np.argsort(-weights, kind="stable")
    for i in order[weights[order] > 0.0]:
        if _floor_holds(matrix, weights[i], factors[i]):
            yield float(weights[i]), int(i)


def max_subtraction(omega: DensityMatrix, sigma: DensityMatrix) -> float:
    """Largest lam >= 0 with omega - lam * sigma still PSD.

    Zero when sigma leaks outside the support of omega (checked at the rank
    cutoff); otherwise 1 / ||(omega^+)^(1/2) sigma (omega^+)^(1/2)||,
    verified against the exact eigenvalue floor.  `_subtraction_weights`
    computes it from sigma's eigen-factor.
    """
    if omega.dims != sigma.dims:
        raise ValidationError("omega and sigma must share dims")
    spectral = linalg.support_kernel(omega.matrix)[:2]
    return float(_subtraction_weights(omega.matrix, spectral, _eigen_factor(sigma)[None])[0])


def _subtractable_candidates(matrix: np.ndarray, spectral: tuple[np.ndarray, np.ndarray],
                             dims: BipartiteDims, r: int, restarts: int, seed: int):
    """Schmidt rank <= r states and the walk of those subtractable from `matrix`.

    The weight of phi is tr / <phi|omega^+|phi> and is nonzero only for phi
    inside the support of omega.  `spectral` is ``(support, values)``:
    the first two parts of ``linalg.support_kernel(matrix)``, or in the edge
    loop the round's split inside omega's support.  The starts are
    truncated support eigenvectors plus random support vectors.  Both
    searches run `_minimize_overlap` on a form over the support S.  When S
    has fewer than ``dims.total`` columns the feasible set is thin: its
    points are the zeros of <phi|P_K|phi>, with P_K = I - S S† the kernel
    projector, the form ``(1, S, 0)``.  So every start runs the witness's
    descent and seesaw on P_K, and rows that end at a kernel mass of at
    most 1e-13 are feasible.  Candidates are later subtracted with their
    full weight against a nearly-closed support gap, where leakage out of
    the support is amplified quadratically, hence the hard floor.  On a
    full support feasibility is free and the seesaw alone minimizes the
    normalized pseudo-inverse ``(0, S, min(vals) / vals)`` to pick heavy
    candidates instead.  Returns ``(rows, admitted)``: the candidate rows,
    which may repeat (a caller that keeps several deduplicates them by
    overlap), and their `_admitted` walk against ``matrix / tr``, with tr
    the trace of `matrix`, which yields ``(weight, index into rows)``
    heaviest first for the rows that hold the eigenvalue floor.
    """
    support, vals = spectral
    tr = float(np.trace(matrix).real)
    rank = support.shape[1]

    n_warm = min(rank, max(2, restarts // 4))
    starts = [support[:, restart] for restart in range(n_warm)]
    for restart in range(n_warm, n_warm + restarts):
        rng = rng_for(seed, f"subtract/{restart}")
        g = rng.normal(size=rank) + 1j * rng.normal(size=rank)
        starts.append(support @ g)
    a, bh = _schmidt_factors(np.reshape(starts, (-1, dims.dimA, dims.dimB)), r)
    truncated = a @ bh
    truncated /= np.linalg.norm(truncated, axis=(1, 2), keepdims=True)
    thin = rank < dims.total
    form = (1.0, support, np.zeros(rank)) if thin else (0.0, support, vals[-1] / vals)
    values, phis = _minimize_overlap(form, truncated.reshape(len(starts), -1), dims, r, thin)
    if thin:
        phis = phis[values <= 1e-13]
    return phis, _admitted(matrix / tr, (support, vals / tr), phis[:, :, None])


def _packing_weights(matrix: np.ndarray, support: np.ndarray, pool: np.ndarray,
                     c0: np.ndarray) -> np.ndarray:
    """maximize sum(c) subject to sum_i c_i |phi_i><phi_i| <= omega, c >= 0.

    Log-barrier Newton restricted to the support of omega, whose basis is
    the columns of `support`.  Greedy weight assignment along overlapping
    candidates strands removable mass; this small packing program
    reallocates the collected pool exactly.  The barrier weight mu falls
    toward the rank cutoff 1e-8; the support gap left open is then
    of order ``mu * rank`` and only pads the reported mixing weight upward,
    which stays an upper bound.  Pool members may keep a kernel mass up to
    the subtraction search's 1e-13 floor, and the closing gap amplifies
    that leak quadratically into the full remainder ``matrix - sum_i c_i
    |phi_i><phi_i|``, so each barrier stage ends with an exact check of
    that remainder against -CERT_MARGIN, and the first stage that breaks
    it returns the weights of the stage before.  A step or start outside
    the cone fails the gap's Cholesky factorization and halves the weights.
    """
    omega_s = support.conj().T @ matrix @ support
    omega_s = (omega_s + omega_s.conj().T) / 2
    members = support.conj().T @ pool.T
    c = held = np.maximum(c0, 1e-8) * 0.9
    mu = 0.1
    while mu > 1e-8:
        for _ in range(60):
            gap = omega_s - (members * c) @ members.conj().T
            gap = (gap + gap.conj().T) / 2
            try:
                chol = np.linalg.cholesky(gap)
            except np.linalg.LinAlgError:
                c = c * 0.5
                continue
            solved = np.linalg.solve(chol, members)
            inner = solved.conj().T @ solved  # <phi_i| gap^-1 |phi_j>
            grad = -1.0 + mu * np.diag(inner).real - mu / c
            hess = mu * (np.abs(inner) ** 2) + np.diag(mu / c ** 2)
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                break
            t = 1.0
            ok = False
            for _ in range(50):
                trial = c + t * step
                if np.all(trial > 0):
                    gap_t = omega_s - (members * trial) @ members.conj().T
                    if np.linalg.eigvalsh((gap_t + gap_t.conj().T) / 2)[0] > 0:
                        ok = True
                        break
                t *= 0.5
            if not ok:
                break
            c = c + t * step
            if np.linalg.norm(t * step) < 1e-12:
                break
        if linalg.min_eigenvalue(matrix - (pool.T * c) @ pool.conj()) < -CERT_MARGIN:
            break
        held = c
        mu *= 0.2
    return np.maximum(held, 0.0)


def max_subtractable(omega: DensityMatrix, r: int, restarts: int = 64,
                     seed: int = 0) -> tuple[float, Optional[PureState]]:
    """Largest weight of any Schmidt rank <= r pure state under omega.

    A rank bound below 1 or a negative restart count is refused.
    """
    if r < 1:
        raise ValidationError(f"rank bound must be >= 1, got {r}")
    if restarts < 0:
        raise ValidationError(f"restart count must be >= 0, got {restarts}")
    phis, admitted = _subtractable_candidates(
        omega.matrix, linalg.support_kernel(omega.matrix)[:2], omega.dims, r, restarts, seed)
    for lam, best in admitted:
        return lam, PureState(phis[best], omega.dims)
    return 0.0, None


@dataclass(frozen=True)
class EdgeDecomposition:
    """omega = (1-p) * within + p * edge with within in the lower class.

    p is 0 exactly when an exact class-(k-1) decomposition of omega was
    found: then `within` is omega itself with `removed` attached, members of
    Schmidt rank <= k-1.  Otherwise p is the greedy subtraction's upper
    bound on the minimal mixing weight, not the exact compactness argument.
    """

    p: float
    within: Optional[DensityMatrix]
    edge: Optional[DensityMatrix]
    removed: Ensemble
    rounds: int


def edge_decompose(omega: DensityMatrix, k: int, budget: int = 500,
                   seed: int = 0) -> EdgeDecomposition:
    """Split a Schmidt-class-k state into class-(k-1) plus edge.

    A pure input is the only member of any decomposition of itself, so one
    of Schmidt rank above k-1 is returned as its own edge (p = 1) at once.
    Otherwise the remix of `sn_upper_bound` first searches for an exact
    decomposition at target rank k-1 with a share of `budget * 60`
    row-iterations; an accepted one gives p = 0 with no greedy round.  The
    remix is skipped when the Lambda scan certifies a Schmidt number above
    k-1, since then no class-(k-1) decomposition exists.

    When the remix is skipped or fails, greedy subtraction splits the state
    with the full budget: each round searches the remainder for
    subtractable Schmidt rank <= k-1 pure states and removes half of the
    best candidate's maximal weight.  omega's support S is split off once
    per call; each round splits the remainder inside it, from the
    eigendecomposition of ``S† R S``, and hands the search that split as
    its support pair, so every candidate lies inside omega's support.
    Late-round remainders are small, so a relative rank cutoff on the
    remainder alone could admit directions that are absolutely negligible
    in omega, and a pool member leaking into them would poison the packing
    remainder once subtracted with full weight.  The round walks the
    search's `_admitted` candidates to the end, heaviest first, so every
    one that holds the eigenvalue floor joins a pool and the first sets the
    round's weight: because greedy weight choices
    along overlapping candidates strand removable mass, whenever a round
    finds nothing above 1e-6 the pool weights are reallocated exactly by a
    small packing program on omega's support, whose barrier runs toward
    the rank cutoff 1e-8 while the full remainder holds the
    eigenvalue floor -CERT_MARGIN.  The loop ends when a round finds
    nothing while the pool is still empty, after five rounds in a row find
    nothing above 1e-6, or when the budget of search restarts is spent; the
    pool is then packed once more.  A budget of 0 runs no search, and a
    negative one is refused.
    """
    if k < 2:
        raise ValidationError(f"edge decomposition needs k >= 2, got {k}")
    _check_budget(budget)
    r = k - 1
    if omega.ensemble is not None and ensemble_max_sr(omega.ensemble) <= r:
        return EdgeDecomposition(p=0.0, within=omega, edge=None,
                                 removed=omega.ensemble, rounds=0)

    omega_support = linalg.support_kernel(omega.matrix)[0]
    if omega_support.shape[1] == 1 and schmidt_rank(
            PureState.normalized(omega_support[:, 0], omega.dims)) > r:
        return EdgeDecomposition(p=1.0, within=None, edge=omega, removed=(), rounds=0)

    if sn_lower_bound(omega)[0] <= r:
        exact, _ = _remix_search(omega, _eigen_factor(omega), r, seed, budget * 60)
        if exact is not None:
            return EdgeDecomposition(p=0.0, within=exact, edge=None,
                                     removed=exact.ensemble, rounds=0)

    pool = np.zeros((0, omega.dims.total), dtype=np.complex128)
    weights = np.zeros(0)
    pool_cap = 64
    restarts_per_round = 12
    max_stall = 5
    rounds = stall = 0
    while rounds * restarts_per_round < budget and stall < max_stall:
        remainder = omega.matrix - (pool.T * weights) @ pool.conj()
        trace_left = float(np.trace(remainder).real)
        rounds += 1
        inner, vals, _ = linalg.support_kernel(
            omega_support.conj().T @ remainder @ omega_support)
        phis, admitted = _subtractable_candidates(
            remainder, (omega_support @ inner, vals), omega.dims, r, restarts_per_round,
            derive_seed(seed, f"edge/round/{rounds}"),
        )
        best_lam, best_index = 0.0, -1  # the heaviest candidate comes first
        for lam, i in admitted:
            phi = phis[i]
            matches = np.flatnonzero(np.abs(pool.conj() @ phi) > 0.999)
            index = int(matches[0]) if matches.size else len(pool)
            if index == len(pool):
                pool, weights = np.vstack([pool, phi]), np.append(weights, 0.0)
            if best_index < 0:
                best_lam, best_index = lam, index
        if best_lam * trace_left > 1e-6:
            weights[best_index] += 0.5 * best_lam * trace_left
            stall = 0
            continue
        if not len(pool):
            break
        weights = _packing_weights(omega.matrix, omega_support, pool, weights)
        if len(pool) > pool_cap:
            order = np.argsort(weights)[::-1]
            keep = np.sort(order[:pool_cap])
            pool = pool[keep]
            weights = weights[keep]
        stall += 1

    if len(pool):
        weights = _packing_weights(omega.matrix, omega_support, pool, weights)
    remainder = omega.matrix - (pool.T * weights) @ pool.conj()

    removed = [(float(c), PureState(phi, omega.dims))
               for c, phi in zip(weights, pool) if c > 1e-12]

    p = min(1.0, max(0.0, float(np.trace(remainder).real)))
    if not removed:
        return EdgeDecomposition(p=1.0, within=None, edge=omega, removed=(),
                                 rounds=rounds)

    removed_total = sum(w for w, _ in removed)
    within = DensityMatrix.from_ensemble([(w / removed_total, psi)
                                          for w, psi in removed])
    if p <= 1e-9:
        return EdgeDecomposition(p=0.0, within=within, edge=None,
                                 removed=within.ensemble, rounds=rounds)

    # Clip roundoff negativity before renormalizing the small remainder.
    vals, vecs = linalg.eigh(remainder)
    vals = np.clip(vals, 0.0, None)
    edge_matrix = (vecs * vals) @ vecs.conj().T
    edge_matrix /= np.trace(edge_matrix).real
    edge = DensityMatrix(edge_matrix, omega.dims)
    return EdgeDecomposition(p=p, within=within, edge=edge,
                             removed=within.ensemble, rounds=rounds)
