"""CLI integration: exit codes, report files, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from schmlab import cli, constructions
from schmlab.channels import completely_depolarizing, identity_channel
from schmlab.errors import NumericError, ValidationError
from schmlab.io import load_state, save_channel, save_state
from schmlab.states import maximally_entangled


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "schmlab", *map(str, args)],
        capture_output=True, text=True, cwd=cwd,
    )


def canonical_report(path):
    doc = json.loads(path.read_text())
    doc.pop("timing_ms", None)
    return json.dumps(doc, sort_keys=True)


def test_analyze_maxent_state(tmp_path):
    fixture = tmp_path / "maxent3.json"
    save_state(maximally_entangled(3), fixture)
    report = tmp_path / "report.json"
    proc = run_cli("analyze-state", fixture, "--effort", "quick",
                   "--seed", 7, "--json", report)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(report.read_text())
    assert doc["certificate"]["lower"] == 3
    assert doc["certificate"]["upper"] == 3
    assert "timing_ms" in doc


def test_analyze_product_fixture(tmp_path):
    fixture = tmp_path / "product.json"
    amp = np.zeros(9, dtype=complex)
    amp[0] = 1.0
    from schmlab.linalg import BipartiteDims
    from schmlab.states import PureState

    save_state(PureState(amp, BipartiteDims(3, 3)), fixture)
    report = tmp_path / "report.json"
    proc = run_cli("analyze-state", fixture, "--effort", "quick", "--json", report)
    assert proc.returncode == 0
    doc = json.loads(report.read_text())
    assert (doc["certificate"]["lower"], doc["certificate"]["upper"]) == (1, 1)


def test_analyze_non_psd_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    matrix = np.diag([1.5, -0.5, 0.0, 0.0])
    bad.write_text(json.dumps({
        "dimA": 2, "dimB": 2, "kind": "mixed",
        "data": [[float(v), 0.0] for v in matrix.reshape(-1)],
    }))
    proc = run_cli("analyze-state", bad)
    assert proc.returncode == 2
    assert "error" in proc.stderr


@pytest.mark.parametrize("kind, entries", [
    ("pure", {0: [1e308, 0.0]}),
    # Diagonal entries of opposite sign make the trace NaN after overflow.
    ("mixed", {0: [1e308, 0.0], 5: [-1e308, 0.0], 1: [1e308, 1e308], 4: [1e308, -1e308]}),
])
def test_overflowing_state_prints_only_the_error(tmp_path, kind, entries):
    # Entries whose squares overflow are refused with schmlab's own message;
    # numpy's overflow warnings never reach stderr.
    size = 4 if kind == "pure" else 16
    data = [entries.get(i, [0.0, 0.0]) for i in range(size)]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dimA": 2, "dimB": 2, "kind": kind, "data": data}))
    proc = run_cli("analyze-state", path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")
    assert ("state norm inf" if kind == "pure" else "trace nan") in lines[0]


@pytest.mark.parametrize("argv, points, modes", [
    (["sweep", "rotation", "--grids", "4"], 4, 3),
    (["analyze-state", "--recipe", "rotation", "--grid", "3", "--effort", "quick"], 3, 2),
])
def test_aliasing_warning_prints_only_its_message(argv, points, modes):
    # A coarse grid warns on stderr without a schmlab source path or line.
    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [
        f"warning: grid of {points} points under-resolves modes up to {modes}; "
        "aliasing may distort the group average"
    ]


def test_analyze_channel(tmp_path):
    for channel, expected in ((completely_depolarizing(2), (1, 1)),
                              (identity_channel(3), (3, 3))):
        path = tmp_path / "channel.json"
        save_channel(channel, path)
        report = tmp_path / "report.json"
        proc = run_cli("analyze-channel", path, "--effort", "quick",
                       "--json", report)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(report.text if hasattr(report, "text") else report.read_text())
        cert = doc["certificate"]
        assert (cert["k_peb_lower"], cert["k_peb_upper"]) == expected
    assert "entanglement breaking" not in proc.stdout or expected == (1, 1)


def test_analyze_channel_bad_kraus_exits_2(tmp_path):
    path = tmp_path / "notp.json"
    path.write_text(json.dumps({
        "dim_in": 2, "dim_out": 2,
        "kraus": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]],
    }))
    proc = run_cli("analyze-channel", path)
    assert proc.returncode == 2


def test_numeric_error_exits_3(tmp_path, monkeypatch):
    # The numeric-failure path needs a pathological decomposition, so
    # exercise the dispatch mapping in-process.
    fixture = tmp_path / "maxent.json"
    save_state(maximally_entangled(2), fixture)

    def boom(*args, **kwargs):
        raise NumericError("synthetic non-convergence", residual=1.0)

    monkeypatch.setattr(cli.schmidt, "certify", boom)
    assert cli.main(["analyze-state", str(fixture)]) == 3


def test_build_snk_round_trip(tmp_path):
    out = tmp_path / "snk.json"
    proc = run_cli("build", "snk", "--k", 2, "--m", 2, "--n", 16,
                   "--grid", 8, "--out", out)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["provenance"]["recipe"] == "snk"
    report = tmp_path / "report.json"
    proc = run_cli("analyze-state", out, "--effort", "quick", "--json", report)
    assert proc.returncode == 0


def test_build_isotropic_maxent_fixture(tmp_path):
    out = tmp_path / "iso.json"
    proc = run_cli("build", "isotropic", "--d", 3, "--fidelity", 1.0, "--out", out)
    assert proc.returncode == 0
    report = tmp_path / "report.json"
    proc = run_cli("analyze-state", out, "--effort", "quick", "--json", report)
    doc = json.loads(report.read_text())
    assert (doc["certificate"]["lower"], doc["certificate"]["upper"]) == (3, 3)


def test_build_rotation_separable(tmp_path):
    out = tmp_path / "rot.json"
    proc = run_cli("build", "rotation", "--m", 3, "--grid", 16, "--out", out)
    assert proc.returncode == 0
    proc = run_cli("analyze-state", "--recipe", "rotation", "--m", 3,
                   "--grid", 16, "--effort", "quick",
                   "--json", tmp_path / "r.json")
    assert proc.returncode == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["certificate"]["lower"] == 1


def test_build_bad_parameters_exit_2(tmp_path, capsys):
    proc = run_cli("build", "isotropic", "--d", 3, "--fidelity", 1.5,
                   "--out", tmp_path / "x.json")
    assert proc.returncode == 2
    out = tmp_path / "snk.json"
    for argv in (["build", "snk", "--out", str(out)],
                 ["analyze-state", "--recipe", "snk", "--json", str(out)]):
        capsys.readouterr()
        assert cli.main([*argv, "--k", "0"]) == 2
        assert "family size must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("flags", [["--json", "r.json"], ["--effort", "thorough"]],
                         ids=["json", "effort"])
def test_build_refuses_report_flags(tmp_path, monkeypatch, flags):
    # build writes only its --out file, so the report flags are not accepted.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["build", "snk", "--out", "s.json", *flags])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_analyze_state_refuses_a_file_and_a_recipe(tmp_path, capsys, monkeypatch):
    # Given both, analyze-state used to certify the file and drop the recipe.
    fixture = tmp_path / "iso.json"
    save_state(constructions.isotropic_state(3, 0.5), fixture)

    def forbidden(*args, **kwargs):
        raise AssertionError("an input was loaded or built")

    monkeypatch.setattr(cli.io, "load_state", forbidden)
    monkeypatch.setattr(cli, "_build_state", forbidden)
    report = tmp_path / "report.json"
    code = cli.main(["analyze-state", str(fixture), "--recipe", "maxent", "--d", "2",
                     "--json", str(report)])
    assert code == 2
    assert "provide exactly one of an input path and --recipe" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "rotation", "--grids", "4"],
    ["build", "snk"],
    ["build", "rotation"],
    ["analyze-state", "--recipe", "snk"],
], ids=["sweep-rotation", "build-snk", "build-rotation", "analyze-snk"])
def test_negative_mode_cutoff_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    flag = "--out" if argv[0] == "build" else "--json"
    assert cli.main([*argv, "--m", "-1", flag, str(out)]) == 2
    assert "mode cutoff m must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["build", "analyze-state"])
@pytest.mark.parametrize("n", ["0", "-2"])
def test_snk_rejects_nonpositive_n(tmp_path, command, n):
    out = tmp_path / "out.json"
    argv = (["build", "snk", "--out", str(out)] if command == "build" else
            ["analyze-state", "--recipe", "snk", "--json", str(out)])
    assert cli.main([*argv, "--n", n]) == 2
    assert not out.exists()


@pytest.mark.parametrize("grids", ["", ",,"])
def test_sweep_rotation_rejects_empty_grids(tmp_path, grids):
    report = tmp_path / "sweep.json"
    code = cli.main(["sweep", "rotation", "--grids", grids, "--json", str(report)])
    assert code == 2
    assert not report.exists()


@pytest.mark.parametrize("argv", [
    ["analyze-state", "--recipe", "rotation", "--grid", "4097"],
    ["build", "snk", "--grid", "100000000"],
    ["sweep", "rotation", "--grids", "4,100000000"],
], ids=["analyze-rotation", "build-snk", "sweep-rotation"])
def test_grid_cap_exits_2_before_building(tmp_path, capsys, monkeypatch, argv):
    # One ensemble member per grid point: an oversized grid is refused before
    # the first state is built, even after a valid sweep size.
    def forbidden(*args, **kwargs):
        raise AssertionError("a rotation state was built")

    monkeypatch.setattr(constructions, "build_rotation_state", forbidden)
    monkeypatch.setattr(constructions, "build_sn_k_state", forbidden)
    out = tmp_path / "out.json"
    flag = "--out" if argv[0] == "build" else "--json"
    assert cli.main([*argv, flag, str(out)]) == 2
    err = capsys.readouterr().err
    assert "grid points are capped at 4096" in err and "Traceback" not in err
    assert not out.exists()


def test_sweep_rotation(tmp_path):
    report = tmp_path / "sweep.json"
    proc = run_cli("sweep", "rotation", "--m", 2, "--grids", "4,8",
                   "--effort", "quick", "--json", report)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(report.read_text())
    assert [row["grid"] for row in doc["rows"]] == [4, 8]


def test_sweep_isotropic_steps(tmp_path):
    report = tmp_path / "iso_sweep.json"
    proc = run_cli("sweep", "isotropic", "--d", 3, "--f-min", 0.0,
                   "--f-max", 1.0, "--f-step", 0.25, "--json", report)
    assert proc.returncode == 0
    doc = json.loads(report.read_text())
    lowers = [row["sn_lower"] for row in doc["rows"]]
    assert lowers == sorted(lowers)
    assert lowers[0] == 1 and lowers[-1] == 3


@pytest.mark.parametrize("f_min, f_max, f_step", [
    ("0.9", "1.2", "0.1"),   # rows above F = 1 would be computed at F = 1
    ("0.9", "0.1", "0.05"),  # an empty range
    ("0", "1", "1e-7"),      # 10^7 rows, none printed until all are done
], ids=["above-one", "reversed", "too-many-steps"])
def test_sweep_rejects_bad_range(tmp_path, f_min, f_max, f_step):
    report = tmp_path / "sweep.json"
    code = cli.main(["sweep", "isotropic", "--f-min", f_min, "--f-max", f_max,
                     "--f-step", f_step, "--json", str(report)])
    assert code == 2
    assert not report.exists()


@pytest.mark.parametrize("step", ["0", "-0.1"])
def test_sweep_rejects_nonpositive_step(tmp_path, step):
    report = tmp_path / "sweep.json"
    code = cli.main(["sweep", "isotropic", "--f-step", step, "--json", str(report)])
    assert code == 2
    assert not report.exists()


def test_rank_cutoff_is_not_an_option(tmp_path):
    # The rank cutoff is fixed: a loose one counts rank-3 members as rank 2,
    # so a report could claim an upper bound that its own members exceed.
    fixture = tmp_path / "maxent.json"
    save_state(maximally_entangled(2), fixture)
    proc = run_cli("analyze-state", fixture, "--tol", "0.5")
    assert proc.returncode == 2
    assert proc.stdout == "" and "unrecognized arguments: --tol 0.5" in proc.stderr


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seed_out_of_range_exits_2(tmp_path, seed):
    report = tmp_path / "report.json"
    code = cli.main(["analyze-state", "--recipe", "isotropic", "--d", "3",
                     "--fidelity", "0.5", "--seed", str(seed), "--json", str(report)])
    assert code == 2
    assert not report.exists()


def test_dimension_cap_exits_2(tmp_path):
    # A well-formed product state, refused only for its width.
    data = [[1.0, 0.0]] + [[0.0, 0.0]] * 4096
    fixture = tmp_path / "wide.json"
    fixture.write_text(json.dumps({"dimA": 4097, "dimB": 1, "kind": "pure", "data": data}))
    with pytest.raises(ValidationError, match="capped at 4096"):
        load_state(fixture)
    assert cli.main(["analyze-state", str(fixture)]) == 2
    assert cli.main(["analyze-state", "--recipe", "maxent", "--d", "4097"]) == 2


def test_wide_binary_state_exits_2(tmp_path):
    # 300 x 300 passes a per-axis cap, but its density matrix would need
    # about 121 GiB; the file is refused before anything that size exists.
    from schmlab.io import HEADER, MAGIC

    payload = np.zeros(2 * 300 * 300, dtype="<f8")
    payload[0] = 1.0
    fixture = tmp_path / "wide.bin"
    fixture.write_bytes(MAGIC + HEADER.pack(300, 300, 0) + payload.tobytes())
    proc = run_cli("analyze-state", fixture)
    assert proc.returncode == 2
    assert "capped at 4096" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", [
    ["analyze-state", "--recipe", "maxent", "--d", "2", "--json"],
    ["build", "maxent", "--d", "2", "--out"],
])
def test_unwritable_output_exits_2(tmp_path, command):
    target = tmp_path / "missing" / "out.json"
    proc = run_cli(*command, target)
    assert proc.returncode == 2
    assert f"{target}: cannot write" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", [
    ["analyze-state", "--recipe", "maxent", "--d", "2", "--json"],
    ["analyze-channel", "CHANNEL", "--json"],
    ["sweep", "isotropic", "--d", "2", "--json"],
    ["build", "maxent", "--d", "2", "--out"],
], ids=["analyze-state", "analyze-channel", "sweep", "build"])
def test_unwritable_output_refused_before_work(tmp_path, command):
    # The output directory is checked first: no certificate, sweep row or
    # built file appears before the exit.
    channel = tmp_path / "depol.json"
    save_channel(completely_depolarizing(2), channel)
    target = tmp_path / "missing" / "dir" / "r.json"
    proc = run_cli(*[channel if arg == "CHANNEL" else arg for arg in command], target)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"{target}: cannot write file: {target.parent} is not a directory" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not target.parent.exists()


def test_missing_input_exits_2(tmp_path):
    proc = run_cli("analyze-state", tmp_path / "absent.json")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_report_determinism(tmp_path):
    fixture = tmp_path / "maxent.json"
    save_state(maximally_entangled(2), fixture)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for out in (first, second):
        proc = run_cli("analyze-state", fixture, "--seed", 11,
                       "--effort", "quick", "--json", out)
        assert proc.returncode == 0
    assert canonical_report(first) == canonical_report(second)
