"""Command-line front end.

Subcommands: ``analyze-state``, ``analyze-channel``, ``build``, ``sweep``.
Exit codes: 0 success, 2 validation error (bad files, bad parameters),
3 numeric error.  All stochastic search is driven by ``--seed``; two runs
with identical flags produce byte-identical JSON reports apart from the
``timing_ms`` field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings

from . import __version__, constructions, io, linalg, schmidt
from .channels import certify_peb, kraus_rank_profile
from .errors import NumericError, ValidationError
from .states import PSD_FLOOR, DensityMatrix, PureState, maximally_entangled

EFFORT_BUDGETS = {"quick": 50, "default": 500, "thorough": 5000}

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

# Seeds are hashed as unsigned 64-bit integers; the snk recipe also uses
# seed + 1, so the accepted range stops one bit short.
SEED_LIMIT = 2 ** 63

# Most fidelity steps one isotropic sweep may take.
MAX_SWEEP_STEPS = 10_000


def _emit(report: dict, args, start: float):
    """Add the fields every report shares and write it to ``--json``, if given."""
    report.update(
        seed=args.seed,
        effort=args.effort,
        tolerances={
            "rank_rel_cutoff": linalg.RANK_CUTOFF,
            "psd_floor": PSD_FLOOR,
            "certification_margin": schmidt.CERT_MARGIN,
        },
        version=__version__,
        timing_ms=1000.0 * (time.perf_counter() - start),
    )
    if args.json_path:
        io.write_file(args.json_path, json.dumps(report, sort_keys=True, indent=1) + "\n")


def _builder_provenance(args, recipe: str) -> dict:
    params = {}
    for name in ("d", "m", "k", "n", "grid", "fidelity", "decay", "arc"):
        value = getattr(args, name, None)
        if value is not None:
            params[name] = value
    return {"recipe": recipe, "params": params, "seed": args.seed}


def _build_state(args, recipe: str):
    if recipe == "rotation":
        profile = constructions.fourier_profile(args.m, args.decay)
        grid = constructions.RotationGrid(points=args.grid, arc=args.arc)
        return constructions.build_rotation_state(profile, profile, grid)
    if recipe == "snk":
        if args.n < 1:
            raise ValidationError(f"--n must be >= 1, got {args.n}")
        grid = constructions.RotationGrid(points=args.grid, arc=1.0 / args.n)
        left = constructions.orthogonal_fourier_family(
            args.k, args.m, args.decay, seed=args.seed)
        right = constructions.orthogonal_fourier_family(
            args.k, args.m, args.decay, seed=args.seed + 1)
        return constructions.build_sn_k_state(left, right, grid)
    if recipe == "isotropic":
        return constructions.isotropic_state(args.d, args.fidelity)
    if recipe == "maxent":
        return maximally_entangled(args.d)
    raise ValidationError(f"unknown recipe {recipe!r}")


def _add_builder_flags(parser):
    parser.add_argument("--d", type=int, default=3, help="local dimension")
    parser.add_argument("--m", type=int, default=2, help="Fourier mode cutoff")
    parser.add_argument("--k", type=int, default=2, help="seed Schmidt rank")
    parser.add_argument("--n", type=int, default=16, help="short-arc divisor")
    parser.add_argument("--grid", type=int, default=8, help="grid points")
    parser.add_argument("--fidelity", "--F", type=float, default=1.0,
                        dest="fidelity", help="isotropic fidelity")
    parser.add_argument("--decay", type=float, default=constructions.PROFILE_DECAY,
                        help="Fourier profile decay")
    parser.add_argument("--arc", type=float, default=1.0, help="arc fraction")


def _add_common_flags(parser):
    parser.add_argument("--effort", choices=sorted(EFFORT_BUDGETS), default="default")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write the report to this path")


def cmd_analyze_state(args) -> int:
    start = time.perf_counter()
    if bool(args.input) == bool(args.recipe):
        raise ValidationError("provide exactly one of an input path and --recipe")
    if args.input:
        state = io.load_state(args.input)
        descriptor = {"path": args.input}
    else:
        state = _build_state(args, args.recipe)
        descriptor = _builder_provenance(args, args.recipe)
    if isinstance(state, PureState):
        state = DensityMatrix.from_pure(state)
    cert = schmidt.certify(state, budget=EFFORT_BUDGETS[args.effort], seed=args.seed)
    report = {"input": descriptor, "certificate": io.certificate_to_dict(cert)}
    print(f"Schmidt number certificate: lower={cert.lower} upper={cert.upper}"
          f"{'' if cert.consistent else '  [INCONSISTENT]'}")
    if cert.lower_evidence is not None:
        print(f"  map violation: t={cert.lower_evidence.t:.6g} "
              f"eigenvalue={cert.lower_evidence.eigenvalue:.6g}")
    print(f"  decomposition: {len(cert.upper_evidence)} members, "
          f"max Schmidt rank {cert.upper}")
    _emit(report, args, start)
    return EXIT_OK


def cmd_analyze_channel(args) -> int:
    start = time.perf_counter()
    channel = io.load_channel(args.input)
    cert = certify_peb(channel, budget=EFFORT_BUDGETS[args.effort], seed=args.seed)
    profile = kraus_rank_profile(channel)
    report = {
        "input": {"path": args.input},
        "certificate": {
            "kind": "peb",
            "k_peb_upper": cert.k_peb_upper,
            "k_peb_lower": cert.k_peb_lower,
            "choi": io.certificate_to_dict(cert.evidence),
        },
        "kraus_rank_profile": {
            "ranks": list(profile.ranks),
            "canonical_ranks": list(profile.canonical_ranks),
            "min_canonical_rank": profile.min_canonical_rank,
        },
    }
    label = "entanglement breaking" if cert.k_peb_upper == 1 else \
        f"{cert.k_peb_upper}-PEB"
    print(f"channel is {label}; not {cert.k_peb_lower - 1}-PEB"
          if cert.k_peb_lower > 1 else f"channel is {label}")
    print(f"  k_peb bounds: ({cert.k_peb_lower}, {cert.k_peb_upper})")
    print(f"  Kraus ranks: {list(profile.ranks)} "
          f"(canonical min {profile.min_canonical_rank})")
    _emit(report, args, start)
    return EXIT_OK


def cmd_build(args) -> int:
    state = _build_state(args, args.recipe)
    provenance = _builder_provenance(args, args.recipe)
    io.save_state(state, args.out, provenance=provenance)
    print(f"wrote {args.recipe} state to {args.out}")
    return EXIT_OK


def _parse_grid_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValidationError(f"--grids expects comma-separated integers, got {text!r}")
    if not values:
        raise ValidationError(f"--grids names no grid size, got {text!r}")
    return values


def cmd_sweep(args) -> int:
    start = time.perf_counter()
    if args.recipe == "rotation":
        grids = _parse_grid_list(args.grids)
        rows = constructions.rotation_erosion_sweep(
            args.m, grids, decay=args.decay,
            samples=max(20, EFFORT_BUDGETS[args.effort] // 10), seed=args.seed)
    elif args.recipe == "isotropic":
        if not args.f_step > 0:
            raise ValidationError(f"--f-step must be positive, got {args.f_step}")
        if not 0.0 <= args.f_min <= args.f_max <= 1.0:
            raise ValidationError("fidelity range must satisfy 0 <= --f-min <= --f-max <= 1, "
                                  f"got [{args.f_min}, {args.f_max}]")
        if (args.f_max - args.f_min) / args.f_step > MAX_SWEEP_STEPS:
            raise ValidationError(f"--f-step {args.f_step} asks for more than "
                                  f"{MAX_SWEEP_STEPS} sweep steps")
        rows = []
        f = args.f_min
        while f <= args.f_max + 1e-12:
            state = constructions.isotropic_state(args.d, min(f, 1.0))
            lower, evidence = schmidt.sn_lower_bound(state)
            rows.append({
                "fidelity": round(f, 12),
                "sn_lower": lower,
                "violation": None if evidence is None else evidence.eigenvalue,
            })
            f += args.f_step
    else:
        raise ValidationError(f"unknown sweep recipe {args.recipe!r}")
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    _emit({"sweep": args.recipe, "rows": rows}, args, start)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schmlab",
        description="Schmidt-number and k-PEB certification toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze-state", help="certify the Schmidt number of a state")
    p.add_argument("input", nargs="?", default=None, help="state file (JSON or binary)")
    p.add_argument("--recipe", choices=["rotation", "snk", "isotropic", "maxent"],
                   default=None, help="build the input instead of loading it")
    _add_builder_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_analyze_state)

    p = sub.add_parser("analyze-channel", help="certify the PEB order of a channel")
    p.add_argument("input", help="channel file (JSON)")
    _add_common_flags(p)
    p.set_defaults(func=cmd_analyze_channel)

    p = sub.add_parser("build", help="write an example state to a file")
    p.add_argument("recipe", choices=["rotation", "snk", "isotropic", "maxent"])
    p.add_argument("--out", required=True)
    _add_builder_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("sweep", help="tabulate a certificate trend over a parameter")
    p.add_argument("recipe", choices=["rotation", "isotropic"])
    p.add_argument("--grids", default="4,8,16,32",
                   help="rotation sweep: comma-separated grid sizes")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--decay", type=float, default=constructions.PROFILE_DECAY)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--f-min", type=float, default=0.0)
    p.add_argument("--f-max", type=float, default=1.0)
    p.add_argument("--f-step", type=float, default=0.05)
    _add_common_flags(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """Print a warning as ``warning: <message>``, without a source location."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            if not 0 <= args.seed < SEED_LIMIT:
                raise ValidationError(f"--seed must lie in [0, 2^63), got {args.seed}")
            for path in (getattr(args, "json_path", None), getattr(args, "out", None)):
                if path:
                    io.check_writable(path)
            return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
