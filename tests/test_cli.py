import json
import subprocess
import sys
from pathlib import Path

from gclab.cli import main

DATA = Path(__file__).parent / "data"
REPO = Path(__file__).parent.parent


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tm_halts_loop(capsys):
    code, out, _ = run_cli(
        ["tm", "halts", str(DATA / "loop.json"), "0", "--budget", "100"], capsys
    )
    assert code == 0
    assert json.loads(out) == {"halts_within": False, "budget": 100}


def test_tm_run_halt1(capsys):
    code, out, _ = run_cli(
        ["tm", "run", str(DATA / "halt1.json"), "0", "--budget", "10"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "halted" and payload["steps"] == 1


def test_tm_malformed_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run_cli(["tm", "run", str(bad), "0"], capsys)
    assert code == 2
    assert err


def test_tm_run_non_list_delta_exit_2(tmp_path, capsys):
    machine = json.loads((DATA / "halt1.json").read_text())
    machine["delta"] = 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(machine))
    code, out, err = run_cli(["tm", "run", str(bad), "0"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("gclab: ") and err.count("\n") == 1


def test_tm_run_directory_exit_2(tmp_path, capsys):
    code, out, err = run_cli(["tm", "run", str(tmp_path), "0"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("gclab: ") and err.count("\n") == 1


def test_missing_machine_file_exit_2(capsys):
    code, _, err = run_cli(["tm", "run", "/nonexistent.json", "0"], capsys)
    assert code == 2


def test_density_cg_closed_rows(tmp_path, capsys):
    out_file = tmp_path / "density.csv"
    code, _, _ = run_cli(
        ["density", "--ensemble", str(DATA / "nu_ensemble.json"),
         "--subset", str(DATA / "cg_subset.json"),
         "--n-max", "9", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    rows = out_file.read_text().strip().splitlines()
    assert rows[0].startswith("n,numerator")
    by_n = {int(r.split(",")[0]): r.split(",")[1:3] for r in rows[1:]}
    # odd radii at least 3 are achieved by 2n+1: mass exactly 1/n
    assert by_n[3] == ["1", "3"]
    assert by_n[5] == ["1", "5"]
    assert by_n[4] == ["0", "1"]


def test_density_full_set_all_ones(tmp_path, capsys):
    subset = tmp_path / "all.json"
    subset.write_text(json.dumps({"name": "all"}))
    code, out, _ = run_cli(
        ["density", "--ensemble", str(DATA / "uniform_ensemble.json"),
         "--subset", str(subset), "--n-max", "5"],
        capsys,
    )
    assert code == 0
    for row in out.strip().splitlines()[1:]:
        assert row.split(",")[1:3] == ["1", "1"]


def test_control_seq_deterministic_output(tmp_path, capsys):
    args = ["control-seq", "--machine", str(DATA / "loop_on_one.json"),
            "--ensemble", str(DATA / "uniform_ensemble.json"),
            "--poly", "n", "--n-max", "3",
            "--sample", "200", "--seed", "5"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(first)], capsys)[0] == 0
    assert run_cli(args + ["--out", str(second)], capsys)[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_control_seq_exact_half(capsys):
    code, out, _ = run_cli(
        ["control-seq", "--machine", str(DATA / "loop_on_one.json"),
         "--ensemble", str(DATA / "uniform_ensemble.json"),
         "--poly", "n", "--n-max", "4"],
        capsys,
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    for row in rows[1:]:
        assert row.split(",")[1:3] == ["1", "2"]


def test_control_seq_sample_needs_seed(capsys):
    code, _, err = run_cli(
        ["control-seq", "--machine", str(DATA / "loop_on_one.json"),
         "--ensemble", str(DATA / "uniform_ensemble.json"),
         "--poly", "n", "--n-max", "3", "--sample", "100"],
        capsys,
    )
    assert code == 2


def test_control_seq_sample_below_one_exit_2(capsys):
    for count in ("0", "-3"):
        code, out, err = run_cli(
            ["control-seq", "--machine", str(DATA / "loop_on_one.json"),
             "--ensemble", str(DATA / "uniform_ensemble.json"),
             "--poly", "n", "--n-max", "3", "--sample", count, "--seed", "5"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == f"gclab: sampling needs at least one sample per sphere, not {count}\n"


def test_verify_nu_sums(capsys):
    code, out, _ = run_cli(["verify", "nu-sums", "--n-max", "16"], capsys)
    assert code == 0
    assert json.loads(out)["passed"]


def test_verify_cs_good_fixture(capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    code, out, _ = run_cli(
        ["verify", "cs", str(DATA / "cs_fixture.json"), "--n-max", "4"], capsys
    )
    assert code == 0
    assert json.loads(out)["passed"]


def test_verify_cs_bad_fixture_exits_1(capsys):
    code, out, _ = run_cli(
        ["verify", "cs", str(DATA / "cs_bad_fixture.json"), "--n-max", "3"], capsys
    )
    assert code == 1
    payload = json.loads(out)
    assert not payload["passed"]
    assert payload["violations"]


def test_reduce_pipeline_bundle(capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    code, out, _ = run_cli(
        ["reduce", "pipeline", str(DATA / "toy_bundle.json"), "--n-max", "2"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"]
    assert len(payload["stages"]) == 6


def test_reduce_bh_bundle(capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    code, out, _ = run_cli(
        ["reduce", "bh", str(DATA / "toy_bundle.json"), "--n-max", "3"], capsys
    )
    assert code == 0
    assert json.loads(out)["passed"]


def test_svg_emission(tmp_path, capsys):
    out_file = tmp_path / "plot.svg"
    subset = tmp_path / "all.json"
    subset.write_text(json.dumps({"name": "all"}))
    code, _, _ = run_cli(
        ["density", "--ensemble", str(DATA / "uniform_ensemble.json"),
         "--subset", str(subset), "--n-max", "5",
         "--format", "svg", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("<svg") and "polyline" in text


def test_horizon_cap_enforced(capsys):
    code, _, err = run_cli(
        ["density", "--ensemble", str(DATA / "uniform_ensemble.json"),
         "--subset", str(DATA / "cg_subset.json"), "--n-max", "40"],
        capsys,
    )
    assert code == 2


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "gclab.cli", "tm", "halts",
         str(DATA / "halt1.json"), "01", "--budget", "5"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["halts_within"] is True


def test_verify_cm_fixture(capsys):
    code, out, _ = run_cli(
        ["verify", "cm", str(DATA / "cm_fixture.json"), "--n-max", "4"], capsys
    )
    assert code == 0
    assert json.loads(out)["passed"]


def test_verify_transfer_fixture(capsys):
    code, out, _ = run_cli(
        ["verify", "transfer", str(DATA / "transfer_fixture.json"), "--n-max", "4"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["passed"]


def test_verify_induced_fixture(capsys):
    code, out, _ = run_cli(
        ["verify", "induced", str(DATA / "induced_fixture.json"), "--n-max", "6"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["passed"]


def test_verify_bh_measure_bundle(capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    code, out, _ = run_cli(
        ["verify", "bh-measure", str(DATA / "toy_bundle.json"), "--n-max", "5"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"]
    assert "min_ratio" in payload["details"]


def test_reduce_to_binary_bundle(capsys):
    code, out, _ = run_cli(
        ["reduce", "to-binary", str(DATA / "abc_bundle.json"), "--n-max", "4"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"]
    assert payload["details"]["size_growth"]["2"] == 4
    assert payload["details"]["sample_map"]["bb"] == "0100"


def test_reduce_universal_reports_known_witnesses(capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    code, out, _ = run_cli(
        ["reduce", "universal", str(DATA / "universal_bundle.json"), "--n-max", "2"],
        capsys,
    )
    payload = json.loads(out)
    # membership holds; the measure clause fails at its two radius-<=2
    # witnesses, so the command honestly exits 1
    assert code == 1
    assert {v["witness"] for v in payload["violations"]} == {"0", "10"}
