import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import gclab.bhp
import gclab.machine
from gclab.cli import main
from gclab.reductions import Reduction
from gclab.words import Alphabet

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


@pytest.mark.parametrize("command", [
    ["tm", "run", "{}", "0"],
    ["control-seq", "--machine", "{}", "--ensemble", str(DATA / "uniform_ensemble.json"),
     "--poly", "n", "--n-max", "2"],
])
def test_machine_file_without_delta_names_the_file(command, tmp_path, capsys):
    machine = json.loads((DATA / "halt1.json").read_text())
    del machine["delta"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(machine))
    code, out, err = run_cli([str(bad) if a == "{}" else a for a in command], capsys)
    assert code == 2
    assert out == ""
    assert err == f"gclab: {bad}: missing machine field: 'delta'\n"


@pytest.mark.parametrize("markers", [{"yes_symbol": "0", "no_symbol": "0"}, {"yes_symbol": "1"}])
def test_machine_with_bad_answer_symbols_names_the_file(markers, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**json.loads((DATA / "halt1.json").read_text()), **markers}))
    code, out, err = run_cli(["tm", "run", str(bad), "0"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"gclab: {bad}: ") and "answer symbol" in err and err.count("\n") == 1


def test_missing_machine_file_exit_2(capsys):
    code, _, err = run_cli(["tm", "run", "/nonexistent.json", "0"], capsys)
    assert code == 2


@pytest.mark.parametrize("command", [
    ["tm", "halts", "nope.json", "0", "--budget", "3"],
    ["control-seq", "--machine", "nope.json", "--ensemble",
     str(DATA / "uniform_ensemble.json"), "--poly", "n", "--n-max", "2"],
])
def test_missing_machine_file_says_it_cannot_be_read(command, tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(command, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("gclab: nope.json: cannot read machine description: ")
    assert "No such file or directory" in err and "not JSON" not in err


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


def test_density_cg_uniform_tests_no_word(capsys, monkeypatch):
    """C(g) meets each sphere in one lex block, so its uniform density up
    to 16 enumerates no sphere word and never calls the predicate (testing
    every word made 131,071 calls); the CSV bytes are those of that sweep."""
    enumerated, tested = [], []
    sphere, c_of_g = Alphabet.sphere, gclab.bhp.c_of_g

    def counted_sphere(alphabet, n):
        for w in sphere(alphabet, n):
            enumerated.append(w)
            yield w

    def counted_c_of_g(g):
        member = c_of_g(g)
        return lambda u: tested.append(u) or member(u)

    monkeypatch.setattr(Alphabet, "sphere", counted_sphere)
    monkeypatch.setattr(gclab.bhp, "c_of_g", counted_c_of_g)
    code, out, _ = run_cli(
        ["density", "--ensemble", str(DATA / "uniform_ensemble.json"),
         "--subset", str(DATA / "cg_subset.json"), "--n-max", "16"],
        capsys,
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "309a67d2d6a41a81b50efdd3ad6b3834dbea64e62ea34c8aeaa27d561aff0d1d"
    assert enumerated == [] and tested == []


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


# a decider that stops within two steps of reading "10" pairs: it halts
# on 0 in q0 and on 1 in q1, and breaks at the blank after the pairs
SHALLOW = {
    "name": "shallow", "states": ["q0", "q1", "h"], "initial": "q0", "final": "h",
    "tape_alphabet": ["0", "1"], "blank": "_", "tape": "two-way",
    "delta": [["q0", "0", "h", "1", "R"], ["q0", "1", "q1", "0", "R"],
              ["q1", "0", "q0", "0", "R"], ["q1", "1", "h", "0", "L"]],
}


def test_control_seq_searches_once_per_block(tmp_path, capsys, monkeypatch):
    """Exact control sequences search once per block of words that share
    the prefix the search read, not once per word: for the 131,071 words
    up to n = 16 the shallow decider needs at most 2,000 searches.  It
    overruns n steps only on the one word of each sphere that is all
    "10" pairs (then a 1 when n is odd), so sphere n weighs 2^-n."""
    calls = []
    search = gclab.machine._search_halting

    def counted(*args, **kwargs):
        calls.append(args[1])
        return search(*args, **kwargs)

    monkeypatch.setattr(gclab.machine, "_search_halting", counted)
    path = tmp_path / "shallow.json"
    path.write_text(json.dumps(SHALLOW))
    code, out, _ = run_cli(
        ["control-seq", "--machine", str(path), "--ensemble",
         str(DATA / "uniform_ensemble.json"), "--poly", "n", "--n-max", "16"],
        capsys,
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert [row.split(",")[:3] for row in rows] == \
        [[str(n), "1", str(2**n)] for n in range(17)]
    assert len(calls) <= 2000


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


def test_unnormalised_table_exit_2(tmp_path, capsys):
    """Sphere 1 sums to 2/3 and sphere 2 to 2: the table is rejected at
    load, before any density is computed."""
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"kind": "table", "alphabet": "01", "entries": {
        "0": "1/3", "1": "1/3", "00": "1/2", "01": "1/2", "10": "1/2", "11": "1/2"}}))
    code, out, err = run_cli(
        ["density", "--ensemble", str(table), "--subset", str(DATA / "cg_subset.json"),
         "--n-max", "2"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err == f"gclab: {table}: sphere 1 sums to 2/3, not 1\n"


def test_out_naming_a_directory_exit_2(tmp_path, capsys):
    """An --out path that cannot be replaced is a usage error that names
    it, and the temporary file is removed."""
    target = tmp_path / "out"
    target.mkdir()
    code, out, err = run_cli(["verify", "nu-sums", "--n-max", "2", "--out", str(target)],
                             capsys)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith(f"gclab: cannot write {target}: ") and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == [target]


UNIFORM, CG = str(DATA / "uniform_ensemble.json"), str(DATA / "cg_subset.json")
TOY = str(DATA / "toy_bundle.json")


@pytest.mark.parametrize("argv", [
    ["verify", "nu-sums", "--n-max", "-1"],
    ["verify", "bh-measure", TOY, "--n-max", "-1"],
    ["reduce", "bh", TOY, "--n-max", "-1"],
    ["reduce", "universal", str(DATA / "universal_bundle.json"), "--n-max", "-1"],
    ["reduce", "pipeline", TOY, "--n-max", "-1"],
    ["reduce", "to-binary", str(DATA / "abc_bundle.json"), "--n-max", "-1"],
    ["density", "--ensemble", UNIFORM, "--subset", CG, "--n-max", "-1"],
    ["control-seq", "--machine", str(DATA / "loop_on_one.json"), "--ensemble", UNIFORM,
     "--poly", "n", "--n-max", "-1"],
    ["tm", "run", str(DATA / "loop.json"), "0", "--budget", "-5"],
    ["tm", "halts", str(DATA / "loop.json"), "0", "--budget", "-5"],
])
def test_negative_horizon_or_budget_exit_2(argv, capsys):
    """A negative horizon or budget checks nothing, so it is a usage
    error, not a pass."""
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.rstrip().endswith(f"{argv[-2]}: {argv[-1]} is negative")


_CONTAINS01 = str(DATA / "contains01.json")


@pytest.mark.parametrize("command,spec", [
    (["density", "--ensemble", "{}", "--subset", CG, "--n-max", "2"], []),
    (["density", "--ensemble", UNIFORM, "--subset", "{}", "--n-max", "2"], []),
    (["control-seq", "--machine", _CONTAINS01, "--ensemble", "{}", "--poly", "n",
      "--n-max", "2"], {"kind": "uniform", "alphabet": 5}),
    (["density", "--ensemble", "{}", "--subset", CG, "--n-max", "2"],
     {"kind": "table", "alphabet": "01", "entries": {"0": None, "1": "1"}}),
    (["reduce", "bh", "{}", "--n-max", "2"], {"problem": []}),
    (["reduce", "pipeline", "{}", "--n-max", "2"],
     {"problem": {"measure": {"kind": "uniform", "alphabet": "01"},
                  "members": {"regex": 5}}, "decider": _CONTAINS01}),
    (["verify", "cs", "{}", "--n-max", "2"], []),
])
def test_spec_of_the_wrong_shape_exit_2(command, spec, tmp_path, capsys):
    """A spec file of the wrong shape is a usage error that names the
    file, not a crash (exit 1 is reserved for a failed verification)."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli([str(path) if a == "{}" else a for a in command], capsys)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith(f"gclab: {path}: malformed spec: ") and err.count("\n") == 1


_BINARY_MEASURE = {"kind": "uniform", "alphabet": "01"}


@pytest.mark.parametrize("construction,bundle,message", [
    ("to-binary", {"problem": {"measure": _BINARY_MEASURE, "members": {"regex": "(("}}},
     "members regex '((': "),
    ("to-binary", {}, "bundle is missing the problem entry"),
    ("to-binary", {"problem": {"measure": _BINARY_MEASURE}},
     "problem members need a regex or a machine reference"),
    ("bh", {"problem": {"measure": _BINARY_MEASURE, "members": {"regex": "1*"}}},
     "bundle is missing the decider"),
    ("pipeline", {"problem": {"measure": _BINARY_MEASURE, "members": {"regex": "1*"}}},
     "bundle is missing the decider"),
], ids=["bad-regex", "no-problem", "no-members", "bh-no-decider", "pipeline-no-decider"])
def test_malformed_bundle_names_the_bundle(construction, bundle, message, tmp_path, capsys):
    """A bundle that cannot be read as a problem, a regex that does not
    compile included, is a usage error that names the bundle."""
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle))
    code, out, err = run_cli(["reduce", construction, str(path), "--n-max", "2"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"gclab: {path}: {message}") and err.count("\n") == 1


_AB_MACHINE = {
    "states": ["q0", "q1"], "initial": "q0", "final": "q1",
    "tape_alphabet": ["a", "b"], "blank": "_", "delta": [["q0", "_", "q1", "a", "R"]],
}
_BINARY_PROBLEM = {"measure": _BINARY_MEASURE, "members": {"regex": "[01]*01[01]*"}}


@pytest.mark.parametrize("argv,spec", [
    (["reduce", "bh", "INPUT"], {"problem": _BINARY_PROBLEM, "decider": _AB_MACHINE}),
    (["reduce", "pipeline", "INPUT"], {"problem": _BINARY_PROBLEM, "decider": _AB_MACHINE}),
    (["reduce", "universal", "INPUT"], {"machine": _AB_MACHINE}),
    (["verify", "bh-measure", "INPUT", "--n-max", "2"],
     json.loads((DATA / "abc_bundle.json").read_text())),
    (["reduce", "bh", "INPUT"],
     {"problem": {**_BINARY_PROBLEM, "members": {"machine": _AB_MACHINE}},
      "decider": str(DATA / "contains01.json")}),
    (["control-seq", "--machine", "AB", "--ensemble", "INPUT", "--poly", "n", "--n-max", "2"],
     _BINARY_MEASURE),
], ids=["bh-decider", "pipeline-decider", "universal-machine", "bh-measure-abc",
        "members-machine", "control-seq-machine"])
def test_words_a_machine_cannot_read_name_the_file(argv, spec, tmp_path, capsys):
    """A machine over {a, b} where binary words are read, or a source
    problem over {a, b, c} where bounded-halting codes are written, is a
    usage error that names the input file, found before any word is run."""
    path, ab = tmp_path / "input.json", tmp_path / "ab.json"
    path.write_text(json.dumps(spec))
    ab.write_text(json.dumps(_AB_MACHINE))
    code, out, err = run_cli([{"INPUT": str(path), "AB": str(ab)}.get(a, a) for a in argv], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"gclab: {path}: ") and err.count("\n") == 1


def test_fixture_missing_a_field_names_file_and_field(tmp_path, capsys):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps({"base": {"kind": "dbh_nu"}, "candidate": {"kind": "dbh_nu"}}))
    code, out, err = run_cli(["verify", "induced", str(path), "--n-max", "2"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"gclab: {path}: missing field 'subset'\n"


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


def test_reduce_pipeline_names_the_bundle_of_a_bad_guard(tmp_path, capsys, monkeypatch):
    bundle = json.loads((DATA / "toy_bundle.json").read_text())
    bundle["guard"] = "n"
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle))
    monkeypatch.chdir(REPO)
    code, out, err = run_cli(["reduce", "pipeline", str(path), "--n-max", "2"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"gclab: {path}: guard must satisfy g(0) >= 1\n"


def test_reduce_pipeline_runs_the_protocol_machine_once_per_image(capsys, monkeypatch):
    """Stage 3 reads the protocol machine's verdicts on stage 1's 31
    images from stage 1 instead of running it again; the output bytes
    are those of running it twice."""
    calls: dict[str, int] = {}
    bh_member = gclab.bhp.bh_member

    def counted(machine, u):
        calls[machine.name] = calls.get(machine.name, 0) + 1
        return bh_member(machine, u)

    monkeypatch.setattr(gclab.bhp, "bh_member", counted)
    monkeypatch.chdir(REPO)
    code, out, _ = run_cli(
        ["reduce", "pipeline", "tests/data/toy_bundle.json", "--n-max", "4"], capsys
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "e1aa83a8cb53c9e6a3209937657968a5583d9e7fbcc6630fd1d3ae20ee9a2bb2"
    assert calls == {"bh-protocol[contains01-uniform]": 31, "universal": 31}


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


@pytest.mark.parametrize("argv,images", [
    (["reduce", "bh", "toy_bundle.json", "--n-max", "6"], 127),
    (["reduce", "universal", "universal_bundle.json", "--n-max", "7"], 255),
    (["reduce", "pipeline", "toy_bundle.json", "--n-max", "3"], 30),
], ids=["bh", "universal", "pipeline"])
def test_stage_checks_map_each_word_once(argv, images, capsys, monkeypatch):
    """Membership and the measure inequality of a bounded-halting stage
    are read off one image per source word: 2^(n+1) - 1 words up to n,
    and the pipeline maps each of its 15 words into each of two stages."""
    calls = []
    apply = Reduction.apply

    def counted(self, x):
        calls.append(x)
        return apply(self, x)

    monkeypatch.setattr(Reduction, "apply", counted)
    monkeypatch.chdir(REPO)
    argv = [*argv[:2], str(DATA / argv[2]), *argv[3:]]
    run_cli(argv, capsys)
    assert len(calls) == images
