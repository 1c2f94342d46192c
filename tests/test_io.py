"""State/channel file formats and export dictionaries."""

import json

import numpy as np
import pytest

from schmlab.channels import identity_channel, random_channel
from schmlab.errors import ValidationError
from schmlab.io import (
    certificate_to_dict,
    check_writable,
    channel_from_dict,
    channel_to_dict,
    load_channel,
    load_state,
    save_channel,
    save_state,
    state_from_bytes,
    state_to_bytes,
    witness_to_dict,
)
from schmlab.linalg import BipartiteDims
from schmlab.sampling import random_density_matrix, random_pure_state, rng_for
from schmlab.schmidt import build_witness, certify
from schmlab.states import DensityMatrix, PureState, maximally_entangled


def test_state_json_round_trip(tmp_path):
    rng = rng_for(0, "io/json")
    psi = random_pure_state(rng, BipartiteDims(2, 3))
    path = tmp_path / "state.json"
    save_state(psi, path, provenance={"recipe": "test"})
    loaded = load_state(path)
    assert isinstance(loaded, PureState)
    assert loaded.dims == psi.dims
    assert np.allclose(loaded.amplitudes, psi.amplitudes)

    omega = random_density_matrix(rng, BipartiteDims(2, 2))
    path2 = tmp_path / "mixed.json"
    save_state(omega, path2)
    loaded = load_state(path2)
    assert isinstance(loaded, DensityMatrix)
    assert np.allclose(loaded.matrix, omega.matrix)


def test_state_binary_round_trip(tmp_path):
    rng = rng_for(1, "io/bin")
    omega = random_density_matrix(rng, BipartiteDims(3, 2))
    raw = state_to_bytes(omega)
    assert raw[:8] == b"SCHMLAB1"
    loaded = state_from_bytes(raw)
    assert np.allclose(loaded.matrix, omega.matrix)

    path = tmp_path / "state.bin"
    save_state(omega, path)  # suffix selects binary
    assert path.read_bytes()[:8] == b"SCHMLAB1"
    assert np.allclose(load_state(path).matrix, omega.matrix)


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dimA": 2,\n "dimB": }')
    with pytest.raises(ValidationError, match="line 2"):
        load_state(path)
    path.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(ValidationError, match="nested"):
        load_state(path)


def test_load_rejects_missing_field(tmp_path):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({"dimA": 2, "dimB": 2, "kind": "pure"}))
    with pytest.raises(ValidationError, match="data"):
        load_state(path)


def test_load_rejects_non_psd(tmp_path):
    bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    doc = {
        "dimA": 2, "dimB": 2, "kind": "mixed",
        "data": [[float(z.real), float(z.imag)] for z in bad.reshape(-1)],
    }
    path = tmp_path / "nonpsd.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="eigenvalue"):
        load_state(path)


@pytest.mark.parametrize("first, shown", [(1e308, "inf"), (0.0, "0.0")])
def test_load_reports_the_norm_as_a_plain_float(tmp_path, first, shown):
    doc = {"dimA": 2, "dimB": 2, "kind": "pure", "data": [[first, 0.0]] + [[0.0, 0.0]] * 3}
    path = tmp_path / "unnormalized.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as info, np.errstate(over="ignore"):
        load_state(path)
    assert f"state norm {shown} is not 1" in str(info.value)
    assert "np.float64" not in str(info.value)


def test_load_rejects_unreadable_files(tmp_path):
    with pytest.raises(ValidationError, match="cannot read"):
        load_state(tmp_path / "absent.json")
    with pytest.raises(ValidationError, match="cannot read"):
        load_channel(tmp_path / "absent.json")
    garbage = tmp_path / "garbage.bin"
    garbage.write_bytes(b"\xff\xfe\x00binary without the magic")
    with pytest.raises(ValidationError, match="UTF-8"):
        load_state(garbage)
    with pytest.raises(ValidationError, match="UTF-8"):
        load_channel(garbage)


def test_save_rejects_unwritable_paths(tmp_path):
    missing = tmp_path / "missing"
    for name in ("s.json", "s.bin"):
        with pytest.raises(ValidationError, match=f"{name}: cannot write"):
            save_state(maximally_entangled(2), missing / name)
    with pytest.raises(ValidationError, match="c.json: cannot write"):
        save_channel(identity_channel(2), missing / "c.json")
    assert not missing.exists()


def test_check_writable_creates_nothing(tmp_path):
    check_writable(tmp_path / "r.json")
    with pytest.raises(ValidationError, match="is not a directory"):
        check_writable(tmp_path / "missing" / "r.json")
    with pytest.raises(ValidationError, match="it is a directory"):
        check_writable(tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("dims", [["a", 2], [True, 2.7], [2, 0], [2, 2.0]])
def test_channel_choi_rejects_bad_dims(tmp_path, dims):
    choi = identity_channel(2).choi()
    doc = {
        "choi": [[float(z.real), float(z.imag)] for z in choi.matrix.reshape(-1)],
        "dims": dims,
    }
    path = tmp_path / "choi.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="positive integer"):
        load_channel(path)


def test_binary_rejects_truncated_payload():
    raw = state_to_bytes(maximally_entangled(2))
    with pytest.raises(ValidationError):
        state_from_bytes(raw[:-8])


def test_channel_round_trip(tmp_path):
    rng = rng_for(2, "io/channel")
    ch = random_channel(rng, 3, 2, 2)
    path = tmp_path / "channel.json"
    save_channel(ch, path)
    loaded = load_channel(path)
    assert (loaded.dim_in, loaded.dim_out) == (3, 2)
    rho = random_density_matrix(rng, BipartiteDims(3, 1)).matrix
    assert np.linalg.norm(loaded.apply(rho) - ch.apply(rho)) <= 1e-12


def test_channel_choi_form():
    ch = identity_channel(2)
    doc = {
        "choi": channel_to_dict(ch)["kraus"][0],  # wrong shape on purpose
        "dims": [2, 2],
    }
    with pytest.raises(ValidationError):
        channel_from_dict(doc)
    choi = ch.choi()
    doc = {
        "choi": [[float(z.real), float(z.imag)] for z in choi.matrix.reshape(-1)],
        "dims": [2, 2],
    }
    loaded = channel_from_dict(doc)
    rho = np.diag([0.25, 0.75]).astype(complex)
    assert np.linalg.norm(loaded.apply(rho) - rho) <= 1e-8


def test_channel_rejects_non_tp(tmp_path):
    doc = {
        "dim_in": 2, "dim_out": 2,
        "kraus": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]],
    }
    path = tmp_path / "badch.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="trace preserving"):
        load_channel(path)


def test_witness_and_certificate_export():
    delta = DensityMatrix.from_pure(maximally_entangled(2))
    w = build_witness(delta, 2, seed=0)
    doc = witness_to_dict(w)
    assert doc["order"] == 2
    assert doc["margin"] == pytest.approx(-0.5, abs=1e-6)
    assert len(doc["matrix"]) == 16
    json.dumps(doc)  # serializable

    cert = certify(delta, budget=10, seed=0)
    cdoc = certificate_to_dict(cert)
    assert cdoc["lower"] == 2 and cdoc["upper"] == 2
    json.dumps(cdoc)
