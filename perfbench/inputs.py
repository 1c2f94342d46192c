"""Seeded inputs and the job list of each workload.

Inputs are drawn with numpy alone, so a change to the program's own
samplers cannot change what the benchmark feeds it.  Each workload has a
small library of base states and channels, drawn once from the
generators below with LIBRARY_SEED.  A run's --seed draws a fresh local
unitary frame U_A (x) U_B for every library item and is also the search
seed handed to the program.  Schmidt numbers, k-PEB orders, edge weights
and witness overlaps are invariant under local unitaries, so what differs
between seeds is the program's own search randomness and the frame it
sees, not which states happened to be drawn.  Fresh states per seed made
single edge splits range from 0.4 s to 8.5 s at one budget, which no run
length here could average out.

The program receives only bare inputs: state files without an attached
ensemble, or bare ``DensityMatrix`` objects.  Each job's generating rank,
class and order stay in the harness as the reference for its checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import checks

LIBRARY_SEED = 1110

# Budget of search restarts for each in-process edge split.  The CLI's
# "thorough" budget of 5000 takes 26-37 s on a single Schmidt-number-2
# mixture, longer than a whole run may last.
EDGE_BUDGET = 240

WORKLOADS = ("cli-bare", "cli-short", "edge-split", "witness")
IN_PROCESS = ("edge-split", "witness")


@dataclass
class Job:
    """One unit of work: a CLI argv or an in-process call, plus its check."""

    name: str
    check: Callable[[Any], dict]
    argv: Optional[list] = None
    call: Optional[Callable[[], Any]] = None
    output: Optional[Path] = None
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# numpy generators
# ---------------------------------------------------------------------------

def haar_isometry(rng, rows: int, cols: int) -> np.ndarray:
    g = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def sr_pure(rng, dA: int, dB: int, r: int) -> np.ndarray:
    """Unit vector of Schmidt rank exactly r, A-major."""
    a = haar_isometry(rng, dA, r)
    b = haar_isometry(rng, dB, r)
    c = rng.uniform(0.2, 1.0, size=r)
    vec = ((a * c) @ b.T).reshape(-1)
    return vec / np.linalg.norm(vec)


def sr_mixture(rng, dA: int, dB: int, r: int, members: int) -> np.ndarray:
    weights = rng.dirichlet(np.ones(members))
    out = np.zeros((dA * dB, dA * dB), dtype=np.complex128)
    for w in weights:
        v = sr_pure(rng, dA, dB, r)
        out += w * np.outer(v, v.conj())
    return out


def ginibre_state(rng, n: int, rank: int) -> np.ndarray:
    g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def bounded_rank_kraus(rng, d: int, n_kraus: int, max_rank: int) -> list:
    """Kraus operators of rank <= max_rank, made trace preserving by S^(-1/2)."""
    blocks = []
    for _ in range(n_kraus):
        x = rng.normal(size=(d, max_rank)) + 1j * rng.normal(size=(d, max_rank))
        y = rng.normal(size=(d, max_rank)) + 1j * rng.normal(size=(d, max_rank))
        blocks.append(x @ y.conj().T)
    s = sum(w.conj().T @ w for w in blocks)
    vals, vecs = np.linalg.eigh(s)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return [w @ inv_sqrt for w in blocks]


def local_frame(rng, dA: int, dB: int) -> np.ndarray:
    return np.kron(haar_isometry(rng, dA, dA), haar_isometry(rng, dB, dB))


def _hermitian(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def _pairs(values) -> list:
    flat = np.asarray(values, dtype=np.complex128).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def write_state(path: Path, dA: int, dB: int, matrix: np.ndarray):
    path.write_text(json.dumps({"dimA": dA, "dimB": dB, "kind": "mixed",
                                "data": _pairs(matrix)}))


def write_channel(path: Path, kraus: list):
    d_out, d_in = kraus[0].shape
    path.write_text(json.dumps({"dim_in": d_in, "dim_out": d_out,
                                "kraus": [_pairs(k) for k in kraus]}))


def _rngs(workload: str, seed: int):
    index = WORKLOADS.index(workload)
    return (np.random.default_rng([LIBRARY_SEED, index]),
            np.random.default_rng([seed, index]))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# cli-bare: three generating members per state keep every shape in the
# regime where the remix search runs its whole budget (a two-member 3x3
# product mixture is solved by its eigen-ensemble at once).
BARE_SHAPES = ((2, 2, 1), (3, 3, 1), (3, 3, 2), (4, 4, 2))
BARE_MEMBERS = 3


def cli_bare(seed: int, workdir: Path) -> list:
    lib, run = _rngs("cli-bare", seed)
    jobs = []
    for dA, dB, r in BARE_SHAPES:
        base = sr_mixture(lib, dA, dB, r, BARE_MEMBERS)
        frame = local_frame(run, dA, dB)
        omega = _hermitian(frame @ base @ frame.conj().T)
        name = f"bare-{dA}x{dB}-r{r}"
        path, report = workdir / f"{name}.json", workdir / f"{name}.report.json"
        write_state(path, dA, dB, omega)
        jobs.append(Job(
            name=name,
            argv=["analyze-state", str(path), "--effort", "default",
                  "--seed", str(seed), "--json", str(report)],
            output=report,
            check=lambda out, omega=omega, dims=(dA, dB), r=r:
                checks.schmidt_report(out, omega, dims, generating_rank=r),
            meta={"generating_rank": r},
        ))
    return jobs


SNK_FLAGS = ["--k", "2", "--m", "2", "--n", "16", "--grid", "8"]


def cli_short(seed: int, workdir: Path) -> list:
    lib, run = _rngs("cli-short", seed)
    s = str(seed)
    depol = [np.outer(np.eye(2)[i], np.eye(2)[j]) / math.sqrt(2)
             for i in range(2) for j in range(2)]
    ident = [np.eye(3, dtype=np.complex128)]
    u_out, u_in = haar_isometry(run, 3, 3), haar_isometry(run, 3, 3)
    bounded = [u_out @ k @ u_in for k in bounded_rank_kraus(lib, 3, 3, 2)]
    channels = {"depolarizing-2": (depol, (1, 1)), "identity-3": (ident, (3, 3)),
                "bounded-rank2-3": (bounded, None)}
    maxent = np.eye(3).reshape(-1) / math.sqrt(3)
    p_max = np.outer(maxent, maxent)
    iso = 0.9 * p_max + 0.1 * (np.eye(9) - p_max) / 8
    snk_file = workdir / "snk.json"

    def report(name):
        return workdir / f"{name}.report.json"

    jobs = [
        Job("build-snk", argv=["build", "snk", *SNK_FLAGS, "--seed", s,
                               "--out", str(snk_file)],
            output=snk_file, check=checks.built_state),
        Job("recipe-maxent-3",
            argv=["analyze-state", "--recipe", "maxent", "--d", "3", "--seed", s,
                  "--json", str(report("maxent"))],
            output=report("maxent"),
            check=lambda out: checks.schmidt_report(out, p_max, (3, 3), 3)),
        Job("recipe-snk",
            argv=["analyze-state", "--recipe", "snk", *SNK_FLAGS, "--seed", s,
                  "--json", str(report("snk"))],
            output=report("snk"),
            check=lambda out: checks.schmidt_report(
                out, *checks.load_state_file(snk_file), 2)),
        Job("recipe-isotropic-0.9",
            argv=["analyze-state", "--recipe", "isotropic", "--d", "3",
                  "--fidelity", "0.9", "--seed", s, "--json", str(report("iso"))],
            output=report("iso"),
            check=lambda out: checks.schmidt_report(out, iso, (3, 3), 3)),
    ]
    for name, (kraus, known) in channels.items():
        path = workdir / f"{name}.channel.json"
        write_channel(path, kraus)
        jobs.append(Job(
            f"channel-{name}",
            argv=["analyze-channel", str(path), "--seed", s, "--json", str(report(name))],
            output=report(name),
            check=lambda out, kraus=kraus, known=known:
                checks.peb_report(out, kraus, known),
        ))
    jobs += [
        Job("sweep-isotropic",
            argv=["sweep", "isotropic", "--d", "3", "--seed", s,
                  "--json", str(report("sweep-iso"))],
            output=report("sweep-iso"), check=checks.isotropic_sweep),
        Job("sweep-rotation",
            argv=["sweep", "rotation", "--grids", "4,8,16,32", "--seed", s,
                  "--json", str(report("sweep-rot"))],
            output=report("sweep-rot"),
            check=lambda out: checks.rotation_sweep(out, [4, 8, 16, 32])),
    ]
    return jobs


# edge-split: 3x3 states of every criterion-4 class.  The mixtures' searches
# vary most from seed to seed, so each mixture class has three states.
EDGE_LIBRARY = (
    ("separable-mixture-a", 2, "mixture", 1),
    ("separable-mixture-b", 2, "mixture", 1),
    ("separable-mixture-c", 2, "mixture", 1),
    ("sn2-mixture-a", 3, "mixture", 2),
    ("sn2-mixture-b", 3, "mixture", 2),
    ("sn2-mixture-c", 3, "mixture", 2),
    ("pure-sr2", 2, "pure", 2),
    ("pure-sr3", 3, "pure", 3),
    ("general-rank4", 2, "general", 4),
)


def edge_split(seed: int, workdir: Path) -> list:
    from schmlab import schmidt
    from schmlab.linalg import BipartiteDims
    from schmlab.states import DensityMatrix

    lib, run = _rngs("edge-split", seed)
    dims = BipartiteDims(3, 3)
    jobs = []
    for name, k, kind, r in EDGE_LIBRARY:
        if kind == "mixture":
            base = sr_mixture(lib, 3, 3, r, int(lib.integers(3, 6)))
        elif kind == "pure":
            v = sr_pure(lib, 3, 3, r)
            base = np.outer(v, v.conj())
        else:
            base = ginibre_state(lib, 9, r)
        frame = local_frame(run, 3, 3)
        omega = _hermitian(frame @ base @ frame.conj().T)
        state = DensityMatrix(omega, dims)
        jobs.append(Job(
            name,
            # Looked up at call time, so a traced run sees the wrapped function.
            call=lambda state=state, k=k: schmidt.edge_decompose(
                state, k=k, budget=EDGE_BUDGET, seed=seed),
            check=lambda out, omega=omega, k=k, kind=kind:
                checks.edge_split(out, omega, (3, 3), k, kind),
            meta={"k": k, "class": kind},
        ))
    return jobs


# witness: deltas on both sides of DENSE_ORACLE_LIMIT = 16 (total dimension).
# Mixed deltas have support rank at most (dA-k+1)(dB-k+1); above that the
# support holds Schmidt-rank-(k-1) states and the witness degenerates.
WITNESS_LIBRARY = (
    ("pure", 3, 3, 2), ("pure", 4, 4, 3), ("pure", 4, 5, 3), ("pure", 5, 5, 4),
    ("mixed", 3, 3, 2), ("mixed", 4, 4, 3), ("mixed", 4, 5, 2), ("mixed", 5, 5, 3),
)


def witness(seed: int, workdir: Path) -> list:
    from schmlab import schmidt
    from schmlab.linalg import BipartiteDims
    from schmlab.states import DensityMatrix

    lib, run = _rngs("witness", seed)
    jobs = []
    for kind, dA, dB, k in WITNESS_LIBRARY:
        frame = local_frame(run, dA, dB)
        if kind == "pure":
            psi = frame @ sr_pure(lib, dA, dB, k)
            delta = np.outer(psi, psi.conj())
            s = np.linalg.svd(psi.reshape(dA, dB), compute_uv=False)
            closed_form = float(1.0 - np.sum(s[:k - 1] ** 2))
        else:
            bound = (dA - k + 1) * (dB - k + 1)
            rank = int(lib.integers(2, bound + 1))
            delta = frame @ ginibre_state(lib, dA * dB, rank) @ frame.conj().T
            closed_form = None
        delta = _hermitian(delta)
        state = DensityMatrix(delta, BipartiteDims(dA, dB))
        jobs.append(Job(
            f"{kind}-{dA}x{dB}-k{k}",
            call=lambda state=state, k=k: schmidt.build_witness(state, k, seed=seed),
            check=lambda out, delta=delta, dims=(dA, dB), k=k, cf=closed_form:
                checks.witness(out, delta, dims, k, cf, seed),
            meta={"k": k, "class": kind},
        ))
    return jobs


BUILDERS = {"cli-bare": cli_bare, "cli-short": cli_short,
            "edge-split": edge_split, "witness": witness}


def make_jobs(workload: str, seed: int, workdir: Path) -> list:
    return BUILDERS[workload](seed, workdir)
