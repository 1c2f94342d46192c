"""File formats for states, channels, witnesses and certificates.

State files (JSON): ``{"dimA", "dimB", "kind": "pure"|"mixed", "data"}``
with ``data`` a flat row-major list of ``[re, im]`` pairs.  Binary
alternative: 17-byte header (8-byte magic ``SCHMLAB1``, then
little-endian u32 dimA, u32 dimB, u8 kind, with no padding), then
little-endian float64 interleaved re/im.  Channel files (JSON):
``{"dim_in", "dim_out", "kraus": [...]}`` with each Kraus operator in the
same pair encoding, or ``{"choi": ..., "dims": [dim_out, dim_in]}``.

Unknown JSON keys are ignored on load, so builders may embed provenance.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import Union

import numpy as np

from .channels import QuantumChannel, choi_to_kraus
from .errors import ValidationError
from .linalg import BipartiteDims
from .schmidt import SchmidtCertificate, WitnessOperator
from .states import DensityMatrix, PureState

MAGIC = b"SCHMLAB1"
KIND_CODES = {"pure": 0, "mixed": 1}
KIND_NAMES = {v: k for k, v in KIND_CODES.items()}

State = Union[PureState, DensityMatrix]


def complex_to_pairs(values: np.ndarray) -> list[list[float]]:
    flat = np.ascontiguousarray(values, dtype=np.complex128).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def pairs_to_complex(pairs, expected: int, field: str) -> np.ndarray:
    try:
        arr = np.asarray(pairs, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"field '{field}' is not a list of [re, im] pairs: {exc}")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError(f"field '{field}' must be a list of [re, im] pairs")
    if arr.shape[0] != expected:
        raise ValidationError(
            f"field '{field}' has {arr.shape[0]} entries, expected {expected}"
        )
    return arr[:, 0] + 1j * arr[:, 1]


def _require(obj: dict, field: str):
    if field not in obj:
        raise ValidationError(f"missing field '{field}'")
    return obj[field]


def _positive_int(value, field: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValidationError(f"field '{field}' must be a positive integer, got {value!r}")
    return value


def state_to_dict(state: State, provenance: dict | None = None) -> dict:
    if isinstance(state, PureState):
        kind, values = "pure", state.amplitudes
    else:
        kind, values = "mixed", state.matrix
    doc = {
        "dimA": state.dims.dimA,
        "dimB": state.dims.dimB,
        "kind": kind,
        "data": complex_to_pairs(values),
    }
    if provenance is not None:
        doc["provenance"] = provenance
    return doc


def state_from_dict(doc: dict) -> State:
    dims = BipartiteDims(_positive_int(_require(doc, "dimA"), "dimA"),
                         _positive_int(_require(doc, "dimB"), "dimB"))
    kind = _require(doc, "kind")
    if kind == "pure":
        amp = pairs_to_complex(_require(doc, "data"), dims.total, "data")
        return PureState(amp, dims)
    if kind == "mixed":
        flat = pairs_to_complex(_require(doc, "data"), dims.total ** 2, "data")
        return DensityMatrix(flat.reshape(dims.total, dims.total), dims)
    raise ValidationError(f"field 'kind' must be 'pure' or 'mixed', got {kind!r}")


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read file: {exc.strerror or exc}")


def write_file(path, data: Union[str, bytes]):
    """Write text or bytes to `path`; a failed write is a ValidationError."""
    path = Path(path)
    try:
        path.write_bytes(data) if isinstance(data, bytes) else path.write_text(data)
    except OSError as exc:
        raise ValidationError(f"{path}: cannot write file: {exc.strerror or exc}")


def check_writable(path):
    """Refuse `path` unless a file can be made there; nothing is created."""
    path = Path(path)
    parent = path.parent
    if path.is_dir():
        raise ValidationError(f"{path}: cannot write file: it is a directory")
    if not parent.is_dir():
        raise ValidationError(f"{path}: cannot write file: {parent} is not a directory")
    if not os.access(parent, os.W_OK | os.X_OK):
        raise ValidationError(f"{path}: cannot write file: {parent} is not writable")


def _load_json(path: Path, data: bytes) -> dict:
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: neither a SCHMLAB1 binary file nor UTF-8 JSON")
    except RecursionError:
        raise ValidationError(f"{path}: JSON is nested too deeply")
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: top level must be a JSON object")
    return doc


def save_state(state: State, path, provenance: dict | None = None):
    """Write a state; the suffix ``.bin`` or ``.schm`` selects the binary format."""
    if Path(path).suffix.lower() in {".bin", ".schm"}:
        write_file(path, state_to_bytes(state))
    else:
        write_file(path, json.dumps(state_to_dict(state, provenance),
                                    sort_keys=True, indent=1) + "\n")


def load_state(path) -> State:
    path = Path(path)
    data = _read(path)
    if data[:8] == MAGIC:
        return state_from_bytes(data)
    doc = _load_json(path, data)
    try:
        return state_from_dict(doc)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


HEADER = struct.Struct("<IIB")  # dimA, dimB, kind, directly after the magic


def state_to_bytes(state: State) -> bytes:
    if isinstance(state, PureState):
        kind, values = 0, state.amplitudes
    else:
        kind, values = 1, state.matrix
    header = MAGIC + HEADER.pack(state.dims.dimA, state.dims.dimB, kind)
    flat = np.ascontiguousarray(values, dtype=np.complex128).reshape(-1)
    interleaved = np.empty(2 * flat.size, dtype="<f8")
    interleaved[0::2] = flat.real
    interleaved[1::2] = flat.imag
    return header + interleaved.tobytes()


def state_from_bytes(data: bytes) -> State:
    offset = len(MAGIC) + HEADER.size
    if len(data) < offset or data[:8] != MAGIC:
        raise ValidationError("not a SCHMLAB1 binary state file")
    dim_a, dim_b, kind = HEADER.unpack_from(data, len(MAGIC))
    dims = BipartiteDims(dim_a, dim_b)
    if kind not in KIND_NAMES:
        raise ValidationError(f"unknown state kind code {kind}")
    count = dims.total if kind == 0 else dims.total ** 2
    payload = np.frombuffer(data, dtype="<f8", offset=offset)
    if payload.size != 2 * count:
        raise ValidationError(
            f"binary payload holds {payload.size // 2} entries, expected {count}"
        )
    values = payload[0::2] + 1j * payload[1::2]
    if kind == 0:
        return PureState(values, dims)
    return DensityMatrix(values.reshape(dims.total, dims.total), dims)


def channel_to_dict(channel: QuantumChannel, provenance: dict | None = None) -> dict:
    doc = {
        "dim_in": channel.dim_in,
        "dim_out": channel.dim_out,
        "kraus": [complex_to_pairs(v) for v in channel.kraus],
    }
    if provenance is not None:
        doc["provenance"] = provenance
    return doc


def channel_from_dict(doc: dict) -> QuantumChannel:
    if "choi" in doc:
        dims_field = _require(doc, "dims")
        if (not isinstance(dims_field, (list, tuple)) or len(dims_field) != 2):
            raise ValidationError("field 'dims' must be [dim_out, dim_in]")
        dims = BipartiteDims(_positive_int(dims_field[0], "dims[0]"),
                             _positive_int(dims_field[1], "dims[1]"))
        flat = pairs_to_complex(doc["choi"], dims.total ** 2, "choi")
        choi = DensityMatrix(flat.reshape(dims.total, dims.total), dims)
        return QuantumChannel(choi_to_kraus(choi))
    dim_in = _positive_int(_require(doc, "dim_in"), "dim_in")
    dim_out = _positive_int(_require(doc, "dim_out"), "dim_out")
    kraus_field = _require(doc, "kraus")
    if not isinstance(kraus_field, list) or not kraus_field:
        raise ValidationError("field 'kraus' must be a nonempty list")
    kraus = []
    for i, entry in enumerate(kraus_field):
        flat = pairs_to_complex(entry, dim_out * dim_in, f"kraus[{i}]")
        kraus.append(flat.reshape(dim_out, dim_in))
    return QuantumChannel(kraus)


def save_channel(channel: QuantumChannel, path, provenance: dict | None = None):
    write_file(path, json.dumps(channel_to_dict(channel, provenance),
                                sort_keys=True, indent=1) + "\n")


def load_channel(path) -> QuantumChannel:
    path = Path(path)
    doc = _load_json(path, _read(path))
    try:
        return channel_from_dict(doc)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def witness_to_dict(witness: WitnessOperator) -> dict:
    recipe = {}
    for key, value in witness.recipe.items():
        if isinstance(value, np.ndarray):
            recipe[key] = complex_to_pairs(value)
        else:
            recipe[key] = value
    return {
        "order": witness.order,
        "margin": witness.margin,
        "matrix": complex_to_pairs(witness.matrix),
        "recipe": recipe,
    }


def certificate_to_dict(cert: SchmidtCertificate) -> dict:
    evidence = None
    if cert.lower_evidence is not None:
        evidence = {"t": cert.lower_evidence.t,
                    "eigenvalue": cert.lower_evidence.eigenvalue}
    upper = {
        "max_schmidt_rank": cert.upper,
        "weights": [w for w, _ in cert.upper_evidence],
        "members": [complex_to_pairs(psi.amplitudes) for _, psi in cert.upper_evidence],
    }
    return {
        "kind": "schmidt",
        "lower": cert.lower,
        "upper": cert.upper,
        "consistent": cert.consistent,
        "lower_evidence": evidence,
        "upper_evidence": upper,
    }
