import ast
import hashlib
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gclab.bhp
import gclab.machine
import gclab.measure
import gclab.reductions
import oracles
from gclab.cli import main
from gclab.reductions import Reduction
from gclab.words import Alphabet, rank_in_sphere, unrank

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


def test_tm_run_refuses_a_brancher_whose_live_part_is_deterministic(tmp_path, capsys):
    """Searches drop the moves into states that cannot reach the final
    state, but a run reads the machine as loaded: the brancher fixture,
    widened so that its cycle states can reach the final state on a 2,
    keeps its branching choices, and ``tm run`` on it is a usage error.
    Its search walks the live part and halts only on a 2."""
    brancher = gclab.machine.load_machine(json.loads((DATA / "brancher.json").read_text()))
    path = tmp_path / "live_brancher.json"
    path.write_text(json.dumps(oracles.live_brancher(brancher).to_canonical_dict()))
    machine = gclab.machine.load_machine(json.loads(path.read_text()))
    assert machine.branching and not machine._live.branching
    for word in ("01", ""):
        code, out, err = run_cli(["tm", "run", str(path), word, "--budget", "10"], capsys)
        assert (code, out, err) == (2, "", "gclab: run needs a deterministic machine; use halts\n")
    assert machine.branching
    for word, halts in (("01", False), ("2", True)):
        code, out, _ = run_cli(["tm", "halts", str(path), word, "--budget", "1000000000"], capsys)
        assert (code, json.loads(out)["halts_within"]) == (0, halts)


def test_tm_run_checks_its_input_before_the_endless_certificate(tmp_path, capsys):
    """A run of a machine that can never halt or break ends at once over
    a budget of ``_CERTIFY_OVER``, but only after the machine and the
    input are checked: a symbol outside the sweeper's alphabet and a
    branching move of the ping-pong fixture are still exit 2, from
    ``tm run`` and from ``run_deterministic`` alike."""
    code, out, err = run_cli(
        ["tm", "run", str(DATA / "sweeper.json"), "012", "--budget", "8000"], capsys)
    assert (code, out, err) == (2, "", "gclab: symbol '2' not in alphabet\n")
    sweeper = gclab.machine.load_machine(json.loads((DATA / "sweeper.json").read_text()))
    assert sweeper._endless
    with pytest.raises(gclab.machine.MachineFormatError):
        gclab.machine.run_deterministic(sweeper, Alphabet("012").word("01"), 8000)
    pingpong = json.loads((DATA / "pingpong.json").read_text())
    pingpong["delta"].append(["q0", "0", "q0", "1", "R"])
    path = tmp_path / "branching_pingpong.json"
    path.write_text(json.dumps(pingpong))
    machine = gclab.machine.load_machine(pingpong)
    assert machine.branching and machine._endless
    code, out, err = run_cli(["tm", "run", str(path), "01", "--budget", "8000"], capsys)
    assert (code, out, err) == (2, "", "gclab: run needs a deterministic machine; use halts\n")
    with pytest.raises(gclab.machine.NondeterministicRunError):
        gclab.machine.run_deterministic(machine, machine.tape_alphabet.word("01"), 8000)
    for name in ("sweeper", "sweeper_live"):
        code, out, _ = run_cli(
            ["tm", "run", str(DATA / f"{name}.json"), "01", "--budget", "8000"], capsys)
        assert (code, json.loads(out)) == (0, {"outcome": "budget", "steps": None, "budget": 8000})


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


_HALT1_DELTA = [["q0", "0", "q1", "0", "R"]]


@pytest.mark.parametrize("change, message", [
    ({"tape_alphabet": ["0"]}, "tape alphabet needs at least 2 symbols"),
    ({"blank": "0"}, "blank must not be a tape-alphabet symbol"),
    ({"states": ["q0", "q1", "q0"]}, "duplicate state names"),
    ({"tape": "sideways"}, "unknown tape mode 'sideways'"),
    ({"delta": _HALT1_DELTA + [["q0", "1", "q1", "1"]]},
     "malformed transition ('q0', '1', 'q1', '1')"),
    ({"delta": _HALT1_DELTA + [["q0", "1", "q9", "1", "R"]]},
     "transition ('q0', '1', 'q9', '1', 'R') references unknown state"),
    ({"delta": _HALT1_DELTA + [["q0", "2", "q1", "1", "R"]]},
     "transition ('q0', '2', 'q1', '1', 'R') reads unknown symbol"),
    ({"delta": _HALT1_DELTA + [["q0", "1", "q1", "1", "S"]]},
     "transition ('q0', '1', 'q1', '1', 'S') has bad direction"),
    ({"yes_symbol": "2", "no_symbol": "0"}, "answer symbol '2' not in alphabet"),
    (None, "a machine description is a JSON object"),
], ids=["one-symbol", "blank-inside", "duplicate-states", "sideways", "four-fields",
        "unknown-state", "unknown-read", "direction-S", "answer-outside", "json-list"])
def test_tm_run_refuses_a_malformed_machine_naming_the_file(change, message, tmp_path, capsys):
    """Every format refusal of a machine file is exit 2 with the file
    named and the refusal's own message: one line, no traceback.  None
    of the refusals is another one's fallback."""
    machine = json.loads((DATA / "halt1.json").read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([machine] if change is None else {**machine, **change}))
    code, out, err = run_cli(["tm", "run", str(bad), "0"], capsys)
    assert (code, out, err) == (2, "", f"gclab: {bad}: {message}\n")


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
    assert err.startswith("gclab: cannot read nope.json: ")
    assert "No such file or directory" in err and "not JSON" not in err


@pytest.mark.parametrize("command", [
    ["tm", "run", "{}", "0"],
    ["reduce", "bh", "{}", "--n-max", "2"],
    ["verify", "cs", "{}", "--n-max", "2"],
], ids=lambda argv: " ".join(argv[:2]))
def test_a_file_that_is_not_utf8_is_named(command, tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    code, out, err = run_cli([str(bad) if a == "{}" else a for a in command], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"gclab: cannot read {bad}: ") and "utf-8" in err


@pytest.mark.parametrize("command", [
    ["tm", "run", "{}", "0"],
    ["density", "--ensemble", "{}", "--subset", str(DATA / "cg_subset.json"), "--n-max", "2"],
], ids=lambda argv: argv[0])
def test_json_nested_past_the_parser_is_named(command, tmp_path, capsys):
    """JSON nested 100,000 deep, past the parser's depth on every
    supported Python, is a usage error naming the file (exit 2, no
    traceback), not a ``RecursionError``."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    code, out, err = run_cli([str(deep) if a == "{}" else a for a in command], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"gclab: cannot read {deep}: ")
    assert "Traceback" not in err


def test_only_the_command_line_reads_files():
    """Every input file is read by ``cli._load_json``: no other module
    opens a file, so no word a machine decodes can name one to read."""
    readers = {"open", "read_text", "read_bytes"}
    for path in sorted((REPO / "src" / "gclab").glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                assert name not in readers, f"{path.name}:{node.lineno} calls {name}"


def test_every_imported_name_is_read():
    """No module of the package but ``__init__`` (which re-exports), and
    no test module, imports a name it never reads, so a deletion leaves
    no import behind that every command and test still compiles and
    runs."""
    paths = sorted((REPO / "src" / "gclab").glob("*.py")) + sorted((REPO / "tests").glob("*.py"))
    for path in paths:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).partition(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread = {name: line for name, line in imported.items() if name not in read}
        assert not unread, f"{path.name} imports names it never reads: {unread}"


def test_tm_run_reads_and_writes_words_over_multi_character_symbols(tmp_path, capsys):
    """The input word and both tape halves are comma-separated symbols,
    as ``Word.text`` writes them, over an alphabet with a
    multi-character symbol."""
    machine = tmp_path / "swap.json"
    machine.write_text(json.dumps({
        "states": ["q0", "q1"], "initial": "q0", "final": "q1",
        "tape_alphabet": ["ab", "c"], "blank": "_",
        "delta": [["q0", "ab", "q0", "c", "R"], ["q0", "c", "q0", "ab", "R"],
                  ["q0", "_", "q1", "c", "L"]]}))
    code, out, err = run_cli(["tm", "run", str(machine), "ab,c,c"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["final"] == {"state": "q1", "left": "c,ab", "right": "ab,c"}


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


def test_density_of_the_doubling_image_is_a_fibonacci_ratio(tmp_path, capsys):
    """The image {00, 1}* of the doubling homomorphism holds F(n+1) words
    of length n (F(1) = F(2) = 1), so its uniform density is F(n+1)/2^n."""
    subset = tmp_path / "image41.json"
    subset.write_text(json.dumps({"name": "image41"}))
    code, out, _ = run_cli(
        ["density", "--ensemble", str(DATA / "uniform_ensemble.json"),
         "--subset", str(subset), "--n-max", "10"],
        capsys,
    )
    assert code == 0
    fib = [1, 1]  # F(n+1) at index n
    while len(fib) < 11:
        fib.append(fib[-1] + fib[-2])
    rows = [row.split(",") for row in out.strip().splitlines()[1:]]
    assert [Fraction(int(num), int(den)) for _, num, den, *_ in rows] == [
        Fraction(fib[n], 2**n) for n in range(11)]


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
         "--poly", "n", "--n-max", "12"],
        capsys,
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 13
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


@pytest.mark.parametrize("spec", [
    {"kind": "transferred", "reduction": {"kind": "identity", "alphabet": "01"},
     "base": {"kind": "uniform", "alphabet": "01"}},
    {"kind": "induced", "base": {"kind": "dbh_nu"}, "subset": {"name": "cg", "g": "n+1"}},
], ids=["transferred", "induced"])
def test_control_seq_sample_without_a_sampler_exit_2(spec, tmp_path, capsys):
    """Past the enumeration cap only the uniform, ν and table ensembles
    can be sampled; any other is a usage error, not a crash."""
    path = tmp_path / "ensemble.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(
        ["control-seq", "--machine", str(DATA / "loop_on_one.json"), "--ensemble", str(path),
         "--poly", "n", "--n-max", "20", "--sample", "5", "--seed", "1"], capsys)
    assert (code, out, err) == (2, "", f"gclab: no sampler for ensemble kind {spec['kind']!r}\n")


def test_control_seq_accepts_one_sample(capsys):
    """--sample 1 is the smallest count accepted: every sphere gets one
    sampled draw, so each value is 0 or 1 over a denominator of 1."""
    code, out, err = run_cli(
        ["control-seq", "--machine", str(DATA / "loop_on_one.json"),
         "--ensemble", str(DATA / "uniform_ensemble.json"),
         "--poly", "n", "--n-max", "6", "--sample", "1", "--seed", "5"],
        capsys,
    )
    assert (code, err) == (0, "")
    rows = [row.split(",") for row in out.strip().splitlines()[1:]]
    assert [row[0] for row in rows] == [str(n) for n in range(7)]
    assert {(row[1], *row[2:3], *row[4:]) for row in rows} == {
        ("0", "1", "sampled", "1", "5"), ("1", "1", "sampled", "1", "5")}


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



_HALVES = {"kind": "table", "alphabet": "01", "entries": {"0": "1/2", "1": "1/2"}}


@pytest.mark.parametrize("subset", [{"name": "all"}, {"name": "cg", "g": "2n+1"}],
                         ids=["all", "cg"])
def test_density_past_a_tables_horizon_exit_2(subset, tmp_path, capsys):
    """A table defined up to n_max 1 has no density on sphere 2, where a
    closed form would give one (1 for every word, 0 for C(2n+1))."""
    table, subset_file = tmp_path / "table.json", tmp_path / "subset.json"
    table.write_text(json.dumps({**_HALVES, "n_max": 1}))
    subset_file.write_text(json.dumps(subset))
    code, out, err = run_cli(["density", "--ensemble", str(table), "--subset", str(subset_file),
                              "--n-max", "2"], capsys)
    assert (code, out, err) == (2, "", "gclab: table ensemble is only defined up to n=1\n")


@pytest.mark.parametrize("machine", ["halt1", "loop"])
def test_control_seq_past_a_tables_horizon_exit_2(machine, tmp_path, capsys):
    """Nor has it an exact control sequence past sphere 1, whether the
    machine overruns (``loop``) or never does (``halt1``, whose overrun
    mass would read 0)."""
    table = tmp_path / "table.json"
    table.write_text(json.dumps({**_HALVES, "n_max": 1}))
    code, out, err = run_cli(["control-seq", "--machine", str(DATA / f"{machine}.json"),
                              "--ensemble", str(table), "--poly", "n+1", "--n-max", "5"], capsys)
    assert (code, out, err) == (2, "", "gclab: table ensemble is only defined up to n=1\n")


@pytest.mark.parametrize("n_max", [-1, True])
def test_table_n_max_that_is_no_nonnegative_integer_exit_2(n_max, tmp_path, capsys):
    """A table with n_max -1 is defined nowhere, and true is no horizon:
    both are refused at load, naming the file."""
    table = tmp_path / "table.json"
    table.write_text(json.dumps({**_HALVES, "n_max": n_max}))
    code, out, err = run_cli(["density", "--ensemble", str(table), "--subset", CG,
                              "--n-max", "1"], capsys)
    assert (code, out) == (2, "")
    assert err == f"gclab: {table}: n_max {n_max!r} is not a nonnegative integer\n"


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


@pytest.mark.parametrize("mass", ["1/0", float("inf"), float("nan"), "half", True],
                         ids=["zero-denominator", "infinity", "nan", "no-number", "bool"])
@pytest.mark.parametrize("command", ["density", "reduce bh"])
def test_table_mass_that_is_no_finite_rational_exit_2(mass, command, tmp_path, capsys):
    """A table mass "1/0" or JSON's Infinity, which once crashed the
    command, or NaN or a text that is no number, or JSON's true, which
    ``Fraction`` reads as 1, in an ensemble spec or a bundle's measure is
    a usage error naming the file and the entry (exit 1 is reserved for a
    failed verification)."""
    table = {"kind": "table", "alphabet": "01", "entries": {"0": mass, "1": "1/2"}}
    path = tmp_path / "spec.json"
    if command == "density":
        path.write_text(json.dumps(table))
        argv = ["density", "--ensemble", str(path), "--subset", CG, "--n-max", "1"]
    else:
        path.write_text(json.dumps({"problem": {"measure": table, "members": {"regex": "1*"}},
                                    "decider": _CONTAINS01}))
        argv = ["reduce", "bh", str(path), "--n-max", "1"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err == f"gclab: {path}: mass {mass!r} for '0' is not a finite rational\n"


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


def test_bh_measure_reads_no_decider(tmp_path, capsys):
    """``verify bh-measure`` checks the map alone, so a bundle whose
    decider is over {a, b} gets the report of the same bundle without a
    decider, byte for byte, while ``reduce bh``, which runs the decider,
    refuses it."""
    bare, ab = tmp_path / "bare.json", tmp_path / "ab.json"
    bare.write_text(json.dumps({"problem": _BINARY_PROBLEM}))
    ab.write_text(json.dumps({"problem": _BINARY_PROBLEM, "decider": _AB_MACHINE}))
    want = run_cli(["verify", "bh-measure", str(bare), "--n-max", "4"], capsys)
    assert want[0] == 0 and json.loads(want[1])["passed"]
    assert run_cli(["verify", "bh-measure", str(ab), "--n-max", "4"], capsys) == want
    code, out, err = run_cli(["reduce", "bh", str(ab), "--n-max", "2"], capsys)
    assert (code, out) == (2, "")
    assert err == f"gclab: {ab}: the decider cannot read binary inputs\n"


@pytest.mark.parametrize("argv,spec,message", [
    (["density", "--ensemble", "INPUT", "--subset", CG], {"kind": "gaussian"},
     "unknown ensemble kind 'gaussian'"),
    (["density", "--ensemble", UNIFORM, "--subset", "INPUT"], {"name": "primes"},
     "unknown subset 'primes'"),
    (["verify", "cs", "INPUT"], {"reduction": {"kind": "rot13"}, "mu": _BINARY_MEASURE,
                                 "nu": _BINARY_MEASURE}, "unknown reduction kind 'rot13'"),
], ids=["ensemble", "subset", "reduction"])
def test_unknown_kind_names_the_file(argv, spec, message, tmp_path, capsys):
    """An ensemble kind, subset name or reduction kind that gclab does not
    know is a usage error that names the file it was read from."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli([str(path) if a == "INPUT" else a for a in argv]
                             + ["--n-max", "2"], capsys)
    assert (code, out, err) == (2, "", f"gclab: {path}: {message}\n")


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


def test_verify_nu_sums_names_a_sphere_that_is_off(capsys, monkeypatch):
    """A ν whose sphere 3 summed to 7/8 fails the check, exit 1, on that
    sphere alone."""
    real = gclab.bhp.NU.sphere_sum
    monkeypatch.setattr(gclab.bhp.NU, "sphere_sum",
                        lambda n: real(n) - Fraction(1, 2**n) if n == 3 else real(n))
    code, out, _ = run_cli(["verify", "nu-sums", "--n-max", "5"], capsys)
    payload = json.loads(out)
    assert (code, payload["passed"]) == (1, False)
    assert [(v["witness"], v["expected"], v["actual"]) for v in payload["violations"]] == [
        ("sphere 3", "1", "7/8")]


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


def test_reduce_pipeline_bundle(capsys):
    code, out, _ = run_cli(
        ["reduce", "pipeline", str(DATA / "toy_bundle.json"), "--n-max", "2"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"]
    assert len(payload["stages"]) == 6


@pytest.mark.parametrize("n_max, horizon, truncated_at", [
    ("4", 16, None), ("5", 17, 17), ("6", 18, 17)])
def test_reduce_pipeline_reports_where_the_relaxation_stopped(n_max, horizon, truncated_at,
                                                              capsys):
    """The relaxation stage checks every sphere up to g(n_max), the toy
    bundle's guard value, but no sphere past ``ENUMERATION_CAP`` (16):
    at n_max 5 and 6 it stops at sphere 17 and says so.  No other stage
    truncates."""
    code, out, _ = run_cli(
        ["reduce", "pipeline", str(DATA / "toy_bundle.json"), "--n-max", n_max], capsys)
    assert code == 0
    stages = {s["stage"]: s for s in json.loads(out)["stages"]}
    relax = stages.pop("relax-restriction:measure")
    assert (relax["horizon"], relax["details"].get("truncated_at")) == (horizon, truncated_at)
    assert relax["passed"]
    assert not any("truncated_at" in s["details"] for s in stages.values())


def test_reduce_pipeline_names_the_bundle_of_a_bad_guard(tmp_path, capsys):
    bundle = json.loads((DATA / "toy_bundle.json").read_text())
    bundle["guard"] = "n"
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle))
    shutil.copy(DATA / "contains01.json", tmp_path)
    code, out, err = run_cli(["reduce", "pipeline", str(path), "--n-max", "2"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"gclab: {path}: guard n must satisfy g(0) >= 1\n"


@pytest.mark.parametrize("command,guard", [
    *[(command, guard) for command in (["reduce", "bh"], ["reduce", "pipeline"],
                                       ["verify", "bh-measure"])
      for guard in ("5", "n", "0", "2n")],
    *[(command, guard) for command in (["density"], ["verify", "induced"])
      for guard in ("n", "5", "0")],
])
def test_a_refused_guard_exits_2_naming_its_file(command, guard, tmp_path, capsys):
    """A guard refused at its coefficients is a usage error that names
    the file holding it: a bundle's guard for the bounded-halting
    commands (its own g(0) counts, though the raised guard would cover
    it), a cg subset's g for the density and induced checks."""
    if command == ["density"]:
        path = tmp_path / "subset.json"
        path.write_text(json.dumps({"name": "cg", "g": guard}))
        argv = [*command, "--ensemble", str(DATA / "nu_ensemble.json"), "--subset", str(path)]
    elif command == ["verify", "induced"]:
        fixture = json.loads((DATA / "induced_fixture.json").read_text())
        fixture["subset"]["g"] = fixture["candidate"]["subset"]["g"] = guard
        path = tmp_path / "induced.json"
        path.write_text(json.dumps(fixture))
        argv = [*command, str(path)]
    else:
        bundle = json.loads((DATA / "toy_bundle.json").read_text())
        bundle["guard"] = guard
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(bundle))
        shutil.copy(DATA / "contains01.json", tmp_path)
        argv = [*command, str(path)]
    code, out, err = run_cli([*argv, "--n-max", "2"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"gclab: {path}: ") and err.count("\n") == 1


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


def test_reduce_bh_bundle(capsys):
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


@pytest.mark.parametrize("d, entry", [([1.5], "1.5"), ([1.9, 1], "1.9"), ([1, True], "True")])
def test_verify_cm_exits_2_on_a_coefficient_that_is_not_an_integer(d, entry, tmp_path, capsys):
    """A density coefficient list with a non-integer entry is refused,
    not read through ``int``: [1.5] is not d = 1, nor [1.9, 1] n + 1."""
    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps({**json.loads((DATA / "cm_fixture.json").read_text()), "d": d}))
    code, out, err = run_cli(["verify", "cm", str(fixture), "--n-max", "2"], capsys)
    assert (code, out) == (2, "")
    assert err == f"gclab: {fixture}: coefficient {entry} is not a nonnegative integer\n"


def test_polynomial_text_with_no_term_exit_2(tmp_path, capsys):
    """An empty density in a fixture and an empty --poly are malformed
    input, not the zero polynomial: neither is a failed check or a
    bound of 0.  A --poly ending in a sign is malformed too, not the
    polynomial before the sign."""
    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps({**json.loads((DATA / "cm_fixture.json").read_text()), "d": ""}))
    code, out, err = run_cli(["verify", "cm", str(fixture), "--n-max", "2"], capsys)
    assert (code, out, err) == (2, "", f"gclab: {fixture}: polynomial '' has no term\n")
    code, out, err = run_cli(
        ["control-seq", "--machine", str(DATA / "loop_on_one.json"), "--ensemble", UNIFORM,
         "--poly", "", "--n-max", "2"], capsys)
    assert (code, out, err) == (2, "", "gclab: polynomial '' has no term\n")
    code, out, err = run_cli(
        ["control-seq", "--machine", str(DATA / "loop_on_one.json"), "--ensemble", UNIFORM,
         "--poly", "1+", "--n-max", "2"], capsys)
    assert (code, out, err) == (
        2, "", "gclab: polynomial '1+' has a sign with no term after it\n")


def test_polynomial_exponent_without_caret_exit_2(capsys):
    """A --poly whose exponent lacks its caret is malformed input, not
    the polynomial 2n^3."""
    code, out, err = run_cli(
        ["control-seq", "--machine", str(DATA / "loop_on_one.json"), "--ensemble", UNIFORM,
         "--poly", "2n3", "--n-max", "2"], capsys)
    assert (code, out, err) == (2, "", "gclab: polynomial '2n3' has a malformed term '2n3'\n")


_SWAPPED = {"kind": "uniform", "alphabet": "10"}  # "0" and "1" in the other order


@pytest.mark.parametrize("reduction, mu, nu", [
    ({"kind": "identity", "alphabet": "10"}, _SWAPPED, {"kind": "uniform", "alphabet": "01"}),
    ({"kind": "identity", "alphabet": "10"}, _SWAPPED, {"kind": "dbh_nu"}),
    ({"kind": "identity", "alphabet": "10"}, _SWAPPED,
     {"kind": "transferred", "reduction": {"kind": "bin_alph", "sigma": "abc"},
      "base": {"kind": "uniform", "alphabet": "abc"}}),
    # the unary map's images are binary words held as text
    ({"kind": "bin_alph", "sigma": "a"}, {"kind": "uniform", "alphabet": "a"}, _SWAPPED),
], ids=["uniform", "dbh_nu", "transferred", "uniform-text"])
def test_verify_cm_exits_2_on_an_image_over_another_alphabet(reduction, mu, nu, tmp_path,
                                                             capsys):
    """A target ensemble over another alphabet than the map's target is
    refused when the fixture is read: the command exits 2 naming the file."""
    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps({"reduction": reduction, "mu": mu, "nu": nu, "d": "1"}))
    code, out, err = run_cli(["verify", "cm", str(fixture), "--n-max", "2"], capsys)
    name = "identity" if reduction["kind"] == "identity" else "unary-to-binary"
    assert (code, out, err) == (2, "", f"gclab: {fixture}: mu must be over {name}'s source "
                                       "alphabet, nu over its target\n")


_AB = {"kind": "uniform", "alphabet": "ab"}


@pytest.mark.parametrize("check", ["transfer", "cs", "cm"])
@pytest.mark.parametrize("source, target", [
    ({"kind": "dbh_nu"}, _AB),  # the source side over 01, not the map's ab
    (_AB, {"kind": "uniform", "alphabet": "01"}),  # the target side over 01
], ids=["source", "target"])
def test_verify_refuses_ensembles_that_do_not_fit_the_map(check, source, target, tmp_path,
                                                          capsys):
    """A map fixture's source-side ensemble must be over the map's source
    alphabet and its target-side one over the map's target: otherwise the
    command exits 2 naming the file, rather than reporting violations on
    words the map never reaches (exit 1) or failing with no file named."""
    keys = ("base", "candidate") if check == "transfer" else ("mu", "nu")
    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps({"reduction": {"kind": "identity", "alphabet": "ab"},
                                   keys[0]: source, keys[1]: target, "d": "1"}))
    assert run_cli(["verify", check, str(fixture), "--n-max", "1"], capsys) == (
        2, "", f"gclab: {fixture}: {keys[0]} must be over identity's source alphabet, "
               f"{keys[1]} over its target\n")


def test_verify_induced_refuses_a_candidate_over_another_alphabet(tmp_path, capsys):
    """An induced fixture's candidate must be over its base's alphabet."""
    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps({"base": {"kind": "uniform", "alphabet": "01"},
                                   "subset": {"name": "cg", "g": "n+1"}, "candidate": _AB}))
    assert run_cli(["verify", "induced", str(fixture), "--n-max", "1"], capsys) == (
        2, "", f"gclab: {fixture}: candidate must be over the base's alphabet\n")


@pytest.mark.parametrize("letters", ["abc", "012"])
@pytest.mark.parametrize("subset", [{"name": "cg", "g": "n+1"}, {"name": "image41"}])
def test_a_binary_subset_under_a_base_over_other_letters_exit_2(subset, letters, tmp_path,
                                                                 capsys):
    """C(g) and the doubling image are sets of words over 0 and 1.  Read
    under a base over other letters, by ``density``, ``verify induced`` or
    an induced ensemble spec, the subset is refused, naming the file it is
    read from; it is not weighed as empty, nor as its words with no other
    letter.  The machine reads the ensemble's letters, so nothing else
    stops ``control-seq``."""
    base = {"kind": "uniform", "alphabet": letters}
    machine = json.loads((DATA / "halt1.json").read_text())
    machine.update(tape_alphabet=list(letters),
                   delta=[["q0", s, "q1", letters[0], "R"] for s in [*letters, "_"]])
    files = {name: tmp_path / f"{name}.json" for name in
             ("base", "subset", "fixture", "induced", "machine")}
    for name, spec in (("base", base), ("subset", subset), ("machine", machine),
                       ("fixture", {"base": base, "subset": subset, "candidate": base}),
                       ("induced", {"kind": "induced", "base": base, "subset": subset})):
        files[name].write_text(json.dumps(spec))
    message = f"subset {subset['name']} is a set of words over 0 and 1\n"
    assert run_cli(["density", "--ensemble", str(files["base"]), "--subset",
                    str(files["subset"]), "--n-max", "3"], capsys) == (
        2, "", f"gclab: {files['subset']}: {message}")
    assert run_cli(["verify", "induced", str(files["fixture"]), "--n-max", "3"], capsys) == (
        2, "", f"gclab: {files['fixture']}: {message}")
    assert run_cli(["control-seq", "--machine", str(files["machine"]), "--ensemble",
                    str(files["induced"]), "--poly", "n+1", "--n-max", "3"], capsys) == (
        2, "", f"gclab: {files['induced']}: {message}")


def test_verify_induced_over_the_reversed_binary_alphabet(tmp_path, capsys):
    """Over "10" C(g)'s sphere mass is its closed form, one lex block in
    either letter order, and the conditioning it induces passes the
    word-by-word check."""
    base, subset = {"kind": "uniform", "alphabet": "10"}, {"name": "cg", "g": "n+1"}
    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps({"base": base, "subset": subset, "candidate": {
        "kind": "induced", "base": base, "subset": subset}}))
    code, out, _ = run_cli(["verify", "induced", str(fixture), "--n-max", "12"], capsys)
    assert code == 0 and json.loads(out)["passed"]


def test_verify_transfer_fixture(capsys):
    code, out, _ = run_cli(
        ["verify", "transfer", str(DATA / "transfer_fixture.json"), "--n-max", "4"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["passed"]


def test_verify_transfer_stops_at_the_candidates_horizon(tmp_path, capsys):
    """The transfer of an "abc" table defined up to n_max 1 is defined up
    to the image size 2: past it, at a filler length (3) as at an image
    length (4), the check exits 2 with the transferred ensemble's error."""
    table = {"kind": "table", "alphabet": "abc",
             "entries": {"a": "1/3", "b": "1/3", "c": "1/3"}, "n_max": 1}
    f = {"kind": "bin_alph", "sigma": "abc"}
    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps({"reduction": f, "base": table, "candidate": {
        "kind": "transferred", "reduction": f, "base": table}}))
    code, out, _ = run_cli(["verify", "transfer", str(fixture), "--n-max", "2"], capsys)
    assert code == 0 and json.loads(out)["passed"]
    for n_max in ("3", "4"):
        assert run_cli(["verify", "transfer", str(fixture), "--n-max", n_max], capsys) == (
            2, "", "gclab: transferred ensemble is only defined up to n=2\n")


@pytest.mark.parametrize("subset", ["all", "image41"])
def test_a_transfer_of_a_base_over_another_alphabet_exit_2(subset, tmp_path, capsys):
    """A transferred ensemble whose base is not over its map's source
    alphabet is refused when its file is read, naming the file, whether or
    not a command weighs its words: ``density`` under a closed-form subset
    and under one that needs masses, and ``verify transfer``."""
    bad = {"kind": "transferred", "reduction": {"kind": "identity", "alphabet": "ab"},
           "base": {"kind": "dbh_nu"}}
    ensemble, subset_path, fixture = (tmp_path / name for name in ("e.json", "s.json", "f.json"))
    ensemble.write_text(json.dumps(bad))
    subset_path.write_text(json.dumps({"name": subset}))
    fixture.write_text(json.dumps({"reduction": bad["reduction"], "candidate": bad,
                                   "base": {"kind": "uniform", "alphabet": "ab"}}))
    message = "identity: base ensemble over another alphabet than the map's source\n"
    assert run_cli(["density", "--ensemble", str(ensemble), "--subset", str(subset_path),
                    "--n-max", "3"], capsys) == (2, "", f"gclab: {ensemble}: {message}")
    assert run_cli(["verify", "transfer", str(fixture), "--n-max", "3"], capsys) == (
        2, "", f"gclab: {fixture}: {message}")


def _doubled_pushforward(pushforward):
    def doubled(*args):
        return {key: 2 * q for key, q in pushforward(*args).items()}
    return doubled


def _last_word_dropped(pushforward):
    def dropped(*args):
        images = pushforward(*args)
        images.popitem()  # the image of the sphere's last source word
        return images
    return dropped


def _ranks_shifted(binary_map):
    def shifted_map(sigma):
        f = binary_map(sigma)

        def shifted(x):
            y = f.func(x)
            return unrank(y.alphabet, len(y), rank_in_sphere(y) % y.alphabet.size**len(y) + 1)
        return f._replace(func=shifted)
    return shifted_map


@pytest.mark.parametrize("mutant", [
    ("_pushforward", _doubled_pushforward),
    ("binary_map", _ranks_shifted),
    ("_pushforward", _last_word_dropped),
], ids=["doubled-masses", "ranks-shifted", "last-word-dropped"])
@pytest.mark.parametrize("argv", [
    ["verify", "transfer", str(DATA / "transfer_abc_fixture.json"), "--n-max", "6"],
    ["verify", "cs", str(DATA / "cs_fixture.json"), "--n-max", "3"],
], ids=["transfer", "cs"])
def test_transfer_checks_catch_a_wrong_transferred_ensemble(mutant, argv, capsys, monkeypatch):
    """A transferred ensemble built wrong (every mass doubled, each image
    moved one rank up, or the last source word of each sphere left out)
    fails both transfer checks: the verifier derives the expected side
    by rank, not from the candidate's own construction."""
    assert run_cli(argv, capsys)[0] == 0
    name, mutate = mutant
    module = gclab.measure if name == "_pushforward" else gclab.reductions
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    code, out, _ = run_cli(argv, capsys)
    assert code == 1
    assert not json.loads(out)["passed"]


def test_verify_induced_fixture(capsys):
    code, out, _ = run_cli(
        ["verify", "induced", str(DATA / "induced_fixture.json"), "--n-max", "6"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["passed"]


def test_verify_bh_measure_bundle(capsys):
    code, out, _ = run_cli(
        ["verify", "bh-measure", str(DATA / "toy_bundle.json"), "--n-max", "5"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"]
    assert "min_ratio" in payload["details"]


def test_reduce_to_binary_bundle(capsys):
    bundle = str(DATA / "abc_bundle.json")
    code, out, _ = run_cli(["reduce", "to-binary", bundle, "--n-max", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"]
    assert payload["details"]["size_growth"]["2"] == 4
    assert payload["details"]["sample_map"]["bb"] == "0100"
    # its words over {a, b, c} cannot be written as bounded-halting codes
    code, out, err = run_cli(["verify", "bh-measure", bundle, "--n-max", "2"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"gclab: {bundle}: ") and err.count("\n") == 1


def test_reduce_to_binary_over_two_other_letters(tmp_path, capsys):
    """A bundle over {a, b} is rebuilt over 01 letter for letter."""
    bundle = tmp_path / "ab_bundle.json"
    bundle.write_text(json.dumps({"problem": {
        "measure": {"kind": "uniform", "alphabet": "ab"}, "members": {"regex": "a*"}}}))
    code, out, err = run_cli(["reduce", "to-binary", str(bundle), "--n-max", "2"], capsys)
    payload = json.loads(out)
    assert (code, err, payload["passed"]) == (0, "", True)
    assert payload["details"]["size_growth"] == {"0": 0, "1": 1, "2": 2}
    assert payload["details"]["sample_map"] == {
        "": "", "a": "0", "b": "1", "aa": "00", "ab": "01", "ba": "10", "bb": "11"}


def test_reduce_universal_reports_known_witnesses(capsys):
    code, out, err = run_cli(
        ["reduce", "universal", str(DATA / "universal_bundle.json"), "--n-max", "2"],
        capsys,
    )
    payload = json.loads(out)
    # membership holds; the measure clause fails at its two radius-<=2
    # witnesses, so the command honestly exits 1
    assert code == 1
    assert err == ""
    assert {v["witness"] for v in payload["violations"]} == {"0", "10"}


def test_reduce_bh_reports_membership_witnesses_both_ways(tmp_path, capsys):
    """A decider for "contains 01" on a problem whose members contain 10
    fails membership preservation both ways, exactly where the two
    differ up to length 3, and nowhere else; the pipeline fails on its
    first stage's membership report alone."""
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps({
        "problem": {"name": "contains10-uniform", "measure": {"kind": "uniform", "alphabet": "01"},
                    "members": {"regex": ".*10.*"}},
        "decider": str(DATA / "contains01.json")}))
    witnesses = [("01", "False", "True"), ("10", "True", "False"), ("001", "False", "True"),
                 ("011", "False", "True"), ("100", "True", "False"), ("110", "True", "False")]
    code, out, err = run_cli(["reduce", "bh", str(bundle), "--n-max", "3"], capsys)
    assert (code, err) == (1, "")
    assert [(v["witness"], v["expected"], v["actual"])
            for v in json.loads(out)["violations"]] == witnesses
    code, out, err = run_cli(["reduce", "pipeline", str(bundle), "--n-max", "3"], capsys)
    assert (code, err) == (1, "")
    failed = [stage for stage in json.loads(out)["stages"] if not stage["passed"]]
    assert [stage["stage"] for stage in failed] == ["reduce-to-bounded-halting:membership"]
    assert [v["witness"] for v in failed[0]["violations"]] == [w for w, _, _ in witnesses]


_SIZE_NOTE, _VANISHES = "not size-preserving", "density polynomial vanishes"


@pytest.mark.parametrize("changes, violations", [
    # the doubling map keeps the length of "", "1" and "11" only; "1" has
    # no image mass, so its bound violation falls between the size notes
    ({"reduction": {"kind": "example41"},
      "nu": {"kind": "table", "alphabet": "01", "entries": {"0": "1", "11": "1"}}},
     [("0", "|f(x)| = 1", "2", _SIZE_NOTE), ("1", ">= 1/2", "0", ""),
      ("00", "|f(x)| = 2", "4", _SIZE_NOTE), ("01", "|f(x)| = 2", "3", _SIZE_NOTE),
      ("10", "|f(x)| = 2", "3", _SIZE_NOTE)]),
    ({"d": "0"}, [(w, "d(k) > 0", "0", _VANISHES) for w in ("", "0", "1", "00", "01", "10", "11")]),
], ids=["not-size-preserving", "d-vanishes"])
def test_verify_cm_notes_points_outside_the_inequality(changes, violations, tmp_path, capsys):
    """A point whose image changes length, or whose sphere has density
    d(k) = 0, is reported with its note and checks no bound; the notes
    and the bound violations keep the words' lex order."""
    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps({**json.loads((DATA / "cm_fixture.json").read_text()),
                                   **changes}))
    code, out, err = run_cli(["verify", "cm", str(fixture), "--n-max", "2"], capsys)
    assert (code, err) == (1, "")
    assert [(v["witness"], v["expected"], v["actual"], v.get("note", ""))
            for v in json.loads(out)["violations"]] == violations


@pytest.mark.parametrize("argv", [
    ["reduce", "bh", "toy_bundle.json", "--n-max", "3"],
    ["reduce", "universal", "universal_bundle.json", "--n-max", "2"],
    ["verify", "bh-measure", "toy_bundle.json", "--n-max", "5"],
], ids=lambda argv: " ".join(argv[:2]))
def test_bundle_machine_paths_are_read_from_the_bundle(argv, tmp_path, capsys, monkeypatch):
    """A bundle names its machine files relative to its own directory,
    so a run from another directory gives the exit code and the bytes
    of a run from the repository root."""
    argv = [*argv[:2], str(DATA / argv[2]), *argv[3:]]
    monkeypatch.chdir(REPO)
    expected = run_cli(argv, capsys)
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv, capsys) == expected
    assert expected[2] == ""


def test_a_bundle_machine_string_is_always_a_path(tmp_path, capsys, monkeypatch):
    """A bundle's machine string names a file from the bundle's
    directory even when the name opens with "{", so the run from another
    directory gives the exit code and bytes of the run from the bundle's."""
    here = tmp_path / "bundle"
    here.mkdir()
    bundle = json.loads((DATA / "toy_bundle.json").read_text())
    bundle["decider"] = "{decider}.json"
    (here / "toy_bundle.json").write_text(json.dumps(bundle))
    shutil.copy(DATA / "contains01.json", here / "contains01.json")
    shutil.copy(DATA / "contains01.json", here / "{decider}.json")
    argv = ["reduce", "bh", str(here / "toy_bundle.json"), "--n-max", "3"]
    monkeypatch.chdir(here)
    expected = run_cli(argv, capsys)
    assert expected[0] == 0 and expected[2] == ""
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv, capsys) == expected


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
    argv = [*argv[:2], str(DATA / argv[2]), *argv[3:]]
    run_cli(argv, capsys)
    assert len(calls) == images
