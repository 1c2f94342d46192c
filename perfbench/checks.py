"""Output checks that use numpy alone, independent of the program's code.

Each check raises CheckFailed with a reason, or returns the job's quality
fields (lower, upper, p, rounds, removed, eps) for the run record.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

PSD_MARGIN = 1e-9      # a violation must be below -PSD_MARGIN
REBUILD_TOL = 1e-8     # trace distance for rebuilt states
RANK_CUTOFF = 1e-8     # relative singular-value cutoff for Schmidt ranks
EPS_TOL = 1e-6         # witness eps against the closed form


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def pairs_to_complex(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[:, 0] + 1j * arr[:, 1]


def load_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def load_state_file(path: Path):
    doc = load_json(path)
    dA, dB = doc["dimA"], doc["dimB"]
    values = pairs_to_complex(doc["data"])
    if doc["kind"] == "pure":
        values = np.outer(values, values.conj())
    return values.reshape(dA * dB, dA * dB), (dA, dB)


def min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    d = a - b
    return float(0.5 * np.abs(np.linalg.eigvalsh((d + d.conj().T) / 2)).sum())


def schmidt_rank(vec: np.ndarray, dims) -> int:
    s = np.linalg.svd(np.asarray(vec).reshape(dims), compute_uv=False)
    return int(np.count_nonzero(s >= RANK_CUTOFF * s[0]))


def lambda_violation(omega: np.ndarray, dims, t: float) -> float:
    """Smallest eigenvalue of (Tr_B omega) (x) I - t omega."""
    dA, dB = dims
    reduced = np.einsum("ijkj->ik", omega.reshape(dA, dB, dA, dB))
    return min_eig(np.kron(reduced, np.eye(dB)) - t * omega)


def schmidt_certificate(cert: dict, omega: np.ndarray, dims,
                        generating_rank: int | None) -> dict:
    """Re-derive both sides of a Schmidt-number certificate."""
    lower, upper = cert["lower"], cert["upper"]
    if lower > 1:
        t = cert["lower_evidence"]["t"]
        require(abs(t - 1.0 / (lower - 1)) <= 1e-12, f"map parameter {t} for lower {lower}")
        ev = lambda_violation(omega, dims, t)
        require(ev < -PSD_MARGIN, f"lower {lower}: eigenvalue {ev:.3e} is not a violation")
    if generating_rank is not None:
        require(lower <= generating_rank,
                f"lower {lower} exceeds the generating rank {generating_rank}")
    evidence = cert["upper_evidence"]
    weights = np.asarray(evidence["weights"], dtype=float)
    members = [pairs_to_complex(m) for m in evidence["members"]]
    require(len(members) == len(weights) > 0, "upper evidence has no members")
    require(bool(np.all(weights >= 0)) and abs(weights.sum() - 1) <= 1e-10,
            "upper evidence weights are not a distribution")
    rebuilt = sum(w * np.outer(m, m.conj()) for w, m in zip(weights, members))
    dist = trace_distance(rebuilt, omega)
    require(dist <= REBUILD_TOL, f"upper evidence rebuilds omega to {dist:.3e}")
    worst = max(schmidt_rank(m, dims) for m in members)
    require(worst <= upper, f"member of Schmidt rank {worst} above upper {upper}")
    return {"lower": lower, "upper": upper}


def schmidt_report(path: Path, omega: np.ndarray, dims, generating_rank: int) -> dict:
    return schmidt_certificate(load_json(path)["certificate"], omega, dims,
                               generating_rank)


def choi(kraus: list) -> np.ndarray:
    """Normalized Choi state on (dim_out, dim_in), maximally entangled reference."""
    d_in = kraus[0].shape[1]
    vecs = [(k / math.sqrt(d_in)).reshape(-1) for k in kraus]
    return sum(np.outer(v, v.conj()) for v in vecs)


def peb_report(path: Path, kraus: list, known) -> dict:
    doc = load_json(path)
    cert = doc["certificate"]
    lower, upper = cert["k_peb_lower"], cert["k_peb_upper"]
    ranks = [int(np.linalg.matrix_rank(k, tol=RANK_CUTOFF * np.linalg.norm(k, 2)))
             for k in kraus]
    require(doc["kraus_rank_profile"]["ranks"] == ranks,
            f"Kraus ranks {doc['kraus_rank_profile']['ranks']} != {ranks}")
    d_out, d_in = kraus[0].shape
    choi_cert = cert["choi"]
    require((choi_cert["lower"], choi_cert["upper"]) == (lower, upper),
            "PEB bounds differ from the Choi certificate")
    schmidt_certificate(choi_cert, choi(kraus), (d_out, d_in), max(ranks))
    if known is not None:
        require((lower, upper) == tuple(known), f"PEB bounds {(lower, upper)} != {known}")
    else:
        require(upper <= max(ranks), f"k_peb_upper {upper} > largest Kraus rank")
    return {"lower": lower, "upper": upper}


def built_state(path: Path) -> dict:
    omega, _ = load_state_file(path)
    require(np.allclose(omega, omega.conj().T, atol=1e-12), "built state is not Hermitian")
    require(abs(np.trace(omega).real - 1) <= 1e-10, "built state trace is not 1")
    require(min_eig(omega) >= -PSD_MARGIN, "built state is not PSD")
    return {}


def isotropic(d: int, fidelity: float) -> np.ndarray:
    v = np.eye(d).reshape(-1) / math.sqrt(d)
    p = np.outer(v, v)
    return fidelity * p + (1 - fidelity) * (np.eye(d * d) - p) / (d * d - 1)


def isotropic_sweep(path: Path, d: int = 3) -> dict:
    rows = load_json(path)["rows"]
    require(len(rows) > 0, "empty sweep")
    for row in rows:
        f, lower = row["fidelity"], row["sn_lower"]
        true_sn = max(1, math.ceil(f * d - 1e-9))
        require(lower <= true_sn, f"F={f}: lower {lower} exceeds Schmidt number {true_sn}")
        if lower > 1:
            ev = lambda_violation(isotropic(d, min(f, 1.0)), (d, d), 1.0 / (lower - 1))
            require(ev < -PSD_MARGIN and abs(ev - row["violation"]) <= 1e-9,
                    f"F={f}: violation {row['violation']} not re-derived ({ev:.3e})")
    return {}


def rotation_sweep(path: Path, grids: list) -> dict:
    rows = load_json(path)["rows"]
    require([row["grid"] for row in rows] == grids, "sweep grids differ from the request")
    for row in rows:
        lam, opt, member = row["max_subtraction"], row["optimized"], row["member_best"]
        require(all(math.isfinite(x) for x in (lam, opt, member)), "non-finite weight")
        require(0 <= opt <= lam <= 1 and member <= lam, f"grid {row['grid']}: bad weights")
    return {}


def edge_split(dec, omega: np.ndarray, dims, k: int, kind: str) -> dict:
    p = dec.p
    require(0.0 <= p <= 1.0, f"p={p} outside [0, 1]")
    rebuilt = np.zeros_like(omega)
    if dec.within is not None:
        rebuilt = rebuilt + (1 - p) * dec.within.matrix
    if dec.edge is not None:
        rebuilt = rebuilt + p * dec.edge.matrix
    dist = trace_distance(rebuilt, omega)
    require(dist <= REBUILD_TOL, f"(1-p) within + p edge rebuilds omega to {dist:.3e}")
    for w, psi in dec.removed:
        require(w >= 0, "negative removed weight")
        require(schmidt_rank(psi.amplitudes, dims) <= k - 1,
                "removed member above Schmidt rank k-1")
    if kind == "pure":
        require(p == 1.0, f"pure Schmidt-rank-k state gave p={p}, not 1")
    return {"p": p, "rounds": dec.rounds, "removed": len(dec.removed)}


def witness(w, delta: np.ndarray, dims, k: int, closed_form, seed: int,
            samples: int = 512) -> dict:
    dA, dB = dims
    n = dA * dB
    eps = float(w.recipe["epsilon"])
    vals, vecs = np.linalg.eigh(delta)
    kernel = vecs[:, vals < RANK_CUTOFF * vals[-1]]
    expected = kernel @ kernel.conj().T - eps * np.eye(n)
    require(np.linalg.norm(w.matrix - expected) <= 1e-8, "W != P - eps * I")
    margin = float(np.trace(w.matrix @ delta).real)
    require(margin < 0 and abs(margin - w.margin) <= 1e-9,
            f"Tr(W delta) = {margin:.3e}, reported {w.margin:.3e}")
    if closed_form is not None:
        require(abs(eps - closed_form) <= EPS_TOL,
                f"eps {eps:.9f} vs closed form {closed_form:.9f}")
    rng = np.random.default_rng([seed, n, k])
    r = k - 1
    a = rng.normal(size=(samples, dA, r)) + 1j * rng.normal(size=(samples, dA, r))
    b = rng.normal(size=(samples, dB, r)) + 1j * rng.normal(size=(samples, dB, r))
    phis = np.einsum("sir,sjr->sij", a, b).reshape(samples, n)
    phis /= np.linalg.norm(phis, axis=1, keepdims=True)
    values = np.einsum("sp,pq,sq->s", phis.conj(), w.matrix, phis).real
    require(values.min() >= -PSD_MARGIN,
            f"Tr(W sigma) = {values.min():.3e} on a Schmidt-rank-{r} sample")
    return {"eps": eps, "margin": margin}
