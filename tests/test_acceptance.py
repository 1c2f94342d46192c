"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is pinned here, not deferred.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from schmlab.channels import (
    QuantumChannel,
    certify_peb,
    choi_to_kraus,
    completely_depolarizing,
    identity_channel,
    measure_prepare_channel,
    random_bounded_rank_channel,
    random_channel,
)
from schmlab.constructions import (
    RotationGrid,
    build_sn_k_state,
    isotropic_threshold,
    orthogonal_fourier_family,
    rotation_erosion_sweep,
)
from schmlab.errors import FilterDegenerateError
from schmlab.io import save_channel, save_state
from schmlab.linalg import BipartiteDims, min_eigenvalue, trace_distance
from schmlab.sampling import (
    random_density_matrix,
    random_sr_mixture,
    random_sr_pure_state,
    rng_for,
)
from schmlab.schmidt import (
    apply_lambda_on_b,
    build_witness,
    certify,
    edge_decompose,
    min_overlap_grid,
    sn_lower_bound,
)
from schmlab.states import (
    DensityMatrix,
    PureState,
    local_filter,
    maximally_entangled,
    product_state,
    schmidt_rank,
)

THOROUGH = 5000
DEFAULT = 500


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def equal_coefficient_state(r, dims):
    amp = np.zeros(dims.total, dtype=complex)
    for i in range(r):
        amp[i * dims.dimB + i] = 1.0 / np.sqrt(r)
    return PureState(amp, dims)


def test_criterion_1_schmidt_rank_exactness():
    start = time.perf_counter()
    for d in range(2, 7):
        assert schmidt_rank(maximally_entangled(d)) == d
    rng = rng_for(1, "acc/products")
    for _ in range(20):
        psi = random_sr_pure_state(rng, BipartiteDims(3, 3), 1)
        assert schmidt_rank(psi) == 1
    violations = 0
    cases = 0
    rng = rng_for(1, "acc/filters")
    while cases < 1000:
        dims = BipartiteDims(int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        psi = random_sr_pure_state(rng, dims, int(rng.integers(1, dims.min_dim + 1)))
        a = rng.normal(size=(dims.dimA, dims.dimA)) \
            + 1j * rng.normal(size=(dims.dimA, dims.dimA))
        b = rng.normal(size=(dims.dimB, dims.dimB)) \
            + 1j * rng.normal(size=(dims.dimB, dims.dimB))
        try:
            filtered = local_filter(psi, a, b)
        except FilterDegenerateError:
            continue
        cases += 1
        if schmidt_rank(filtered) > schmidt_rank(psi):
            violations += 1
    elapsed = time.perf_counter() - start
    report(1, violations == 0 and elapsed < 5.0,
           f"maxent SR exact for d=2..6, {violations} monotonicity violations "
           f"in 1000 cases, {elapsed:.2f}s (< 5s)")


def test_criterion_2_lambda_map_boundary():
    start = time.perf_counter()
    dims = BipartiteDims(4, 4)
    rng = rng_for(2, "acc/lambda")
    worst_psd = 0.0
    worst_gap = 0.0
    for r in (1, 2, 3):
        for _ in range(1000):
            psi = random_sr_pure_state(rng, dims, r)
            ev = min_eigenvalue(apply_lambda_on_b(psi.projector(), dims, 1.0 / r))
            worst_psd = min(worst_psd, ev)
        psi = equal_coefficient_state(r + 1, dims)
        ev = min_eigenvalue(apply_lambda_on_b(psi.projector(), dims, 1.0 / r))
        worst_gap = max(worst_gap, abs(ev - (1.0 / (r + 1) - 1.0 / r)))
    elapsed = time.perf_counter() - start
    report(2, worst_psd >= -1e-9 and worst_gap <= 1e-9 and elapsed < 30.0,
           f"min PSD eigenvalue {worst_psd:.2e} (>= -1e-9), boundary gap "
           f"{worst_gap:.2e} (<= 1e-9), {elapsed:.2f}s (< 30s)")


def test_criterion_3_witness_construction():
    dims = BipartiteDims(2, 2)
    delta = DensityMatrix.from_pure(maximally_entangled(2))
    witness = build_witness(delta, 2, seed=3)
    eps = witness.recipe["epsilon"]
    oracle_eps, _ = min_overlap_grid(witness.recipe["P"], 1, dims,
                                     samples=128, seed=33)
    margin = float(np.trace(witness.matrix @ delta.matrix).real)
    rng = rng_for(3, "acc/witness")
    a = rng.normal(size=(2, 10_000)) + 1j * rng.normal(size=(2, 10_000))
    b = rng.normal(size=(2, 10_000)) + 1j * rng.normal(size=(2, 10_000))
    a /= np.linalg.norm(a, axis=0)
    b /= np.linalg.norm(b, axis=0)
    cols = np.einsum("ip,jp->ijp", a, b).reshape(4, 10_000)
    values = np.einsum("dp,de,ep->p", cols.conj(), witness.matrix, cols).real
    ok = (abs(eps - 0.5) <= 1e-6 and abs(oracle_eps - eps) <= 1e-6
          and abs(margin + 0.5) <= 1e-6 and values.min() >= -1e-9)
    report(3, ok,
           f"epsilon={eps:.8f} (0.5 +/- 1e-6), oracle gap {abs(oracle_eps-eps):.2e}, "
           f"margin={margin:.8f} (-0.5 +/- 1e-6), min product value "
           f"{values.min():.2e} over 10^4 samples")


def test_criterion_4_edge_decomposition():
    rng = rng_for(4, "acc/edge")
    dims = BipartiteDims(3, 3)
    library = []
    # Mixtures of Schmidt rank <= k-1 states: p must fall below 0.05.
    for i in range(4):
        library.append(("mixture", 2,
                        random_sr_mixture(rng, dims, 1, int(rng.integers(3, 6)))))
    for i in range(4):
        library.append(("mixture", 3,
                        random_sr_mixture(rng, dims, 2, int(rng.integers(3, 6)))))
    # Pure Schmidt rank k states: p must be exactly 1.
    for k in (2, 3, 2, 3):
        library.append(("pure", k,
                        DensityMatrix.from_pure(random_sr_pure_state(rng, dims, k))))
    # General states: only the reconstruction identity is demanded.
    for i in range(8):
        library.append(("general", 2, random_density_matrix(rng, dims, rank=4)))
    assert len(library) == 20

    worst_dist = 0.0
    mixture_p = []
    pure_p = []
    for kind, k, omega in library:
        bare = DensityMatrix(omega.matrix, dims)
        dec = edge_decompose(bare, k=k, budget=THOROUGH, seed=4)
        rebuilt = np.zeros_like(omega.matrix)
        if dec.within is not None:
            rebuilt = rebuilt + (1 - dec.p) * dec.within.matrix
        if dec.edge is not None:
            rebuilt = rebuilt + dec.p * dec.edge.matrix
        worst_dist = max(worst_dist, trace_distance(rebuilt, omega.matrix))
        if kind == "mixture":
            mixture_p.append(dec.p)
        elif kind == "pure":
            pure_p.append(dec.p)
    ok = (worst_dist <= 1e-8 and all(p == 1.0 for p in pure_p)
          and all(p <= 0.05 for p in mixture_p))
    report(4, ok,
           f"worst reconstruction distance {worst_dist:.2e} (<= 1e-8) on 20 states, "
           f"pure p={pure_p}, mixture p_max={max(mixture_p):.4f} (<= 0.05)")


def test_criterion_5_choi_jamiolkowski():
    start = time.perf_counter()
    rng = rng_for(5, "acc/choi")
    worst = 0.0
    for _ in range(100):
        d_in = int(rng.integers(2, 5))
        d_out = int(rng.integers(2, 5))
        n_k = max(int(rng.integers(1, 4)), -(-d_in // d_out))
        channel = random_channel(rng, d_in, d_out, n_k)
        rebuilt = QuantumChannel(choi_to_kraus(channel.choi()))
        for _ in range(50):
            rho = random_density_matrix(rng, BipartiteDims(d_in, 1)).matrix
            worst = max(worst, float(np.linalg.norm(
                channel.apply(rho) - rebuilt.apply(rho))))
    ident = certify_peb(identity_channel(3), budget=DEFAULT, seed=5)
    depol = certify_peb(completely_depolarizing(2), budget=DEFAULT, seed=5)
    mp_upper = []
    for i in range(10):
        ch = measure_prepare_channel(rng, 3, 3, 4)
        mp_upper.append(certify_peb(ch, budget=50, seed=i).k_peb_upper)
    elapsed = time.perf_counter() - start
    ok = (worst <= 1e-8
          and (ident.k_peb_lower, ident.k_peb_upper) == (3, 3)
          and (depol.k_peb_lower, depol.k_peb_upper) == (1, 1)
          and all(u == 1 for u in mp_upper)
          and elapsed < 60.0)
    report(5, ok,
           f"worst action deviation {worst:.2e} (<= 1e-8, 100 channels x 50 probes), "
           f"identity qutrit ({ident.k_peb_lower},{ident.k_peb_upper}), depolarizing "
           f"({depol.k_peb_lower},{depol.k_peb_upper}), measure-prepare uppers all 1, "
           f"{elapsed:.1f}s (< 60s)")


def test_criterion_6_kraus_rank_soundness():
    rng = rng_for(6, "acc/kraus")
    failures = 0
    total = 0
    for k in (1, 2, 3):
        for i in range(34 if k == 1 else 33):
            d = int(rng.integers(max(2, k), 5))
            channel = random_bounded_rank_channel(
                rng, d, d, max(3, -(-d // k)), k)
            cert = certify_peb(channel, budget=50, seed=i)
            total += 1
            if cert.k_peb_upper > k:
                failures += 1
    report(6, failures == 0 and total == 100,
           f"{total} bounded-rank channels, {failures} upper-bound violations")


def test_criterion_7_rotation_constructions():
    start = time.perf_counter()
    left = orthogonal_fourier_family(2, 2, seed=0)
    right = orthogonal_fourier_family(2, 2, seed=1)
    state = build_sn_k_state(left, right, RotationGrid(points=8, arc=1.0 / 16))
    cert = certify(state, budget=DEFAULT, seed=7)
    with pytest.warns(UserWarning):  # N=4 under-resolves m=3 by design
        rows = rotation_erosion_sweep(3, [4, 8, 16, 32], samples=200, seed=7)
    values = [row["max_subtraction"] for row in rows]
    trend_ok = all(later <= earlier * 1.10
                   for earlier, later in zip(values, values[1:]))
    elapsed = time.perf_counter() - start
    ok = (cert.lower, cert.upper) == (2, 2) and trend_ok and elapsed < 120.0
    report(7, ok,
           f"snk certificate ({cert.lower},{cert.upper}) == (2,2), erosion "
           f"{[round(v, 5) for v in values]} non-increasing within 10%, "
           f"{elapsed:.1f}s (< 120s)")


def test_criterion_8_isotropic_threshold():
    details = []
    ok = True
    for k in (1, 2):
        found = isotropic_threshold(3, k)
        # Closed-form oracle: (Id ⊗ Lambda_t) has spectrum 1/d - tF and
        # 1/d - t(1-F)/(d^2-1); bisect its sign change at t = 1/k.
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-3:
            mid = 0.5 * (lo + hi)
            if min(1.0 / 3.0 - mid / k,
                   1.0 / 3.0 - (1.0 - mid) / (k * 8.0)) < -1e-9:
                hi = mid
            else:
                lo = mid
        oracle = 0.5 * (lo + hi)
        ok = ok and abs(found - k / 3.0) <= 0.01 and abs(found - oracle) <= 2e-3
        details.append(f"k={k}: found {found:.4f} vs {k/3:.4f} (oracle {oracle:.4f})")
    report(8, ok, "; ".join(details))


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "schmlab", *map(str, args)],
                          capture_output=True, text=True)


def _canonical(path):
    doc = json.loads(path.read_text())
    doc.pop("timing_ms", None)
    return json.dumps(doc, sort_keys=True)


def test_criterion_9_cli_determinism(tmp_path):
    maxent = tmp_path / "maxent.json"
    save_state(maximally_entangled(3), maxent)
    prod = tmp_path / "prod.json"
    save_state(product_state([1, 0, 0], [1, 0, 0]), prod)
    depol = tmp_path / "depol.json"
    save_channel(completely_depolarizing(2), depol)
    matrix = [
        ("analyze-state", str(maxent), "--effort", "quick", "--seed", "9"),
        ("analyze-state", str(prod), "--effort", "quick", "--seed", "9"),
        ("analyze-state", "--recipe", "snk", "--k", "2", "--m", "2", "--n", "16",
         "--grid", "8", "--effort", "quick", "--seed", "9"),
        ("analyze-channel", str(depol), "--effort", "quick", "--seed", "9"),
        ("sweep", "isotropic", "--d", "3", "--f-step", "0.25", "--seed", "9"),
        ("sweep", "rotation", "--m", "2", "--grids", "4,8", "--effort", "quick",
         "--seed", "9"),
    ]
    mismatches = []
    for idx, invocation in enumerate(matrix):
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"{idx}_{run}.json"
            proc = _run_cli(*invocation, "--json", out)
            assert proc.returncode == 0, proc.stderr
            outputs.append(_canonical(out))
        if outputs[0] != outputs[1]:
            mismatches.append(invocation[0:2])
    report(9, not mismatches,
           f"{len(matrix)} CLI invocations run twice, "
           f"{len(mismatches)} byte-level mismatches (timing excluded)")
