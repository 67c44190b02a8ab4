"""CLI outputs on the fixtures in tests/data, pinned byte for byte.

Each command is one that test_cli.py runs (with stdout in place of
--out, plus the SVG renderings of the two sequence commands).  The
exit code and the sha256 of stdout were recorded before the verifiers
were folded onto shared helpers; a refactor must not move them.  The
four long-tape pins (two halting scanners, one two-way and one
one-end, and the nondeterministic contains01 on either side of its
halting time) were recorded with the tuple-based stepper, before the
tapes were packed into integers.  The universal stage at n <= 8 and
the uniform-base C(g) density were recorded with the per-symbol code
readers, before codes were read as whole strings.  The rank-to-binary
transfer over abc and the change-of-size check at n <= 8 were recorded
with Fraction-by-Fraction sphere sums, per-call masses and a size
inverse per transferred word, before sums were taken per denominator.
The sampled control sequence under ν was recorded with the samplers
chosen by ensemble class in ``genericity.sample_sphere``, before each
ensemble drew its own samples.  The three sampled pins up to n = 24 and
64 (a three-letter uniform draw rejects one output in four) were
recorded while every draw was made one letter at a time and searched
on its own, before a sphere's samples were one batch read off its
stream and a sampled sequence searched once per read prefix, as an
exact one does.  The two answer-convention pins were
recorded while searches decoded each halting configuration to a symbol
tuple for ``decode_answer``, before the convention became one test on
the packed tape.  The two bouncer pins were recorded while every
deterministic run walked its whole budget unless it revisited a
configuration, before translated cycles ended a run early.  The two
sweeper pins were recorded while a walk took one step per cell, as it
does again; both hash a budget verdict with no steps.  The `tm run`
pins of both fixtures now end on the endless certificate
(``TuringMachine._endless``: no state reachable from the initial one is
final or lacks a move) without a step, and their `tm halts` pins break
at once on the live part, so the walks they were recorded with are
checked in test_machine on the fixtures' ``*_live.json`` variants.  The
two-way scanner pin is the one that pins the step count and final tape
of a long run: ``test_machine::test_a_sweeper_walks_every_step`` checks
that its 2,402 steps take 2,402 ``step`` calls.  The brancher
pin was recorded while a branching machine's search was a breadth-first
search of all its moves, before moves into states with no path to the
final state were dropped from every search.  The failing rank-to-binary
transfer over abc was recorded while the verifier mapped every source
word to build its expected side, before rank-preserving maps had that
side laid out by rank.  The failing change-of-measure check under ν and
the failing induced check were recorded while every point divided and
compared its own masses, before points that share their mass objects
reused one quotient and one verdict.
"""

import hashlib
from pathlib import Path

import pytest

from gclab.cli import main

REPO = Path(__file__).parent.parent

NU = "tests/data/nu_ensemble.json"
UNIFORM = "tests/data/uniform_ensemble.json"
CG = "tests/data/cg_subset.json"
LOOP_ON_ONE = "tests/data/loop_on_one.json"
TOY = "tests/data/toy_bundle.json"
ANSWERS = "tests/data/answer_decider.json"
BOUNCER = "tests/data/bouncer.json"
SWEEPER = "tests/data/sweeper.json"
UNIFORM3 = "tests/data/uniform3_ensemble.json"
BRANCHER = "tests/data/brancher.json"

# Long tapes: every other `tm run` pin ends in "budget" or after one step,
# so these are the ones that pin a long final configuration.
TAPE_1200 = "01101" * 240
NTM_1001 = "0" * 1000 + "1"
LABELS = {TAPE_1200: "(01101)^240", NTM_1001: "0^1000 1"}

GOLDEN = {
    ("tm", "halts", "tests/data/loop.json", "0", "--budget", "100"): (0,
        "5ffe4de83dc16cbbe995b2e6253aa1b0b0ba3e70f7f27ee1f9a3b163f144f09f"),
    ("tm", "run", "tests/data/halt1.json", "0", "--budget", "10"): (0,
        "81ce26e73e7db99b5fda0d7ffa2cce715b60b90e83b7632154bb9bb7ccc10989"),
    ("tm", "halts", "tests/data/halt1.json", "01", "--budget", "5"): (0,
        "1047e563a7d0263719fe3825a2114c495033be07182680e9a98230e3fd58e03c"),
    ("density", "--ensemble", NU, "--subset", CG, "--n-max", "9"): (0,
        "d2ef2e921334182bf7bb6bec0e848402076d501c18a099eccb5c4d6bec16b52b"),
    ("density", "--ensemble", NU, "--subset", CG, "--n-max", "9",
     "--format", "svg"): (0,
        "c5cde3382c9de70356d112682e003271d4dd8129e5137dcb25fa5751fa0d3191"),
    ("density", "--ensemble", UNIFORM, "--subset", CG, "--n-max", "40"): (2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("control-seq", "--machine", LOOP_ON_ONE, "--ensemble", UNIFORM,
     "--poly", "n", "--n-max", "3", "--sample", "200", "--seed", "5"): (0,
        "19bda6b6363a0c31d21948a136e92dcf60d2293610b5274f03b93769bc4b7307"),
    ("control-seq", "--machine", LOOP_ON_ONE, "--ensemble", UNIFORM,
     "--poly", "n", "--n-max", "4"): (0,
        "5fa9830eeb23636d6639da895ae5c3c3a908fe42351cec18249445adffb068f6"),
    ("control-seq", "--machine", LOOP_ON_ONE, "--ensemble", UNIFORM,
     "--poly", "n", "--n-max", "4", "--format", "svg"): (0,
        "f78357de4100abbb39b44eae6675237f4d406f1f77d84a08f2e81c15ff9f4210"),
    ("control-seq", "--machine", LOOP_ON_ONE, "--ensemble", UNIFORM,
     "--poly", "n", "--n-max", "3", "--sample", "100"): (2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("control-seq", "--machine", LOOP_ON_ONE, "--ensemble", UNIFORM,
     "--poly", "n", "--n-max", "3", "--seed", "5"): (2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("verify", "nu-sums", "--n-max", "16"): (0,
        "aba464e425980713820d714ca410e180057d60a7b961d4b5c8a29b9467715ff1"),
    ("verify", "cs", "tests/data/cs_fixture.json", "--n-max", "4"): (0,
        "ccb379b502f783106e15b0a825631068d4bcc8c7ab7d316466633785a72b97d3"),
    ("verify", "cs", "tests/data/cs_bad_fixture.json", "--n-max", "3"): (1,
        "f668b13ee2e96c1bfde2c2bc25d8c43b17ab94dad193d1124c39c6d02a1be7b5"),
    ("verify", "cm", "tests/data/cm_fixture.json", "--n-max", "4"): (0,
        "11ad3c5f55f1dc140f476883e34675de0f16b13c2d821df3b30e61efa09371be"),
    ("verify", "transfer", "tests/data/transfer_fixture.json", "--n-max", "4"): (0,
        "e2ead29ee5f47ca6bbc536cd0263be10b84ddf9cc6e26e17f4eea2f567116271"),
    ("verify", "induced", "tests/data/induced_fixture.json", "--n-max", "6"): (0,
        "00286fd26a2a4a2e61b9872967aa97c21b33eae63710131e40db5198995eae6d"),
    ("verify", "bh-measure", TOY, "--n-max", "5"): (0,
        "2106a9b54e0d25c78e807f715cd6b501fe46fa06b733a023dca3c8342f6731f8"),
    ("reduce", "pipeline", TOY, "--n-max", "2"): (0,
        "e6ffb330763ade4fa7568938e382608ff8a4ca173c704566a36320a64f4d5488"),
    ("reduce", "bh", TOY, "--n-max", "3"): (0,
        "4841447e96109fd2e2d54cc2075c394b4cd058b16d5ec9e1ea44c4e6bd56d692"),
    ("reduce", "to-binary", "tests/data/abc_bundle.json", "--n-max", "4"): (0,
        "56d7c4a45d0f73052e4bdd8808a1bb52d8550fb8023ce1ea11ae0ee18956fe39"),
    ("reduce", "universal", "tests/data/universal_bundle.json", "--n-max", "2"): (1,
        "f466aac2133c00eec2f9b0ec563054d841fd79b822bc75ef29a1cb77c106aeca"),
    # criterion 05's six witnesses (14,254 bytes): the numeral scan and
    # word validation on codes of several thousand bits
    ("reduce", "universal", "tests/data/universal_bundle.json", "--n-max", "8"): (1,
        "acb87ffcaa6df8fd88721a134c749c1a6a67175a797ed734fc18f5f3f66c67ee"),
    # C(g) under a uniform base: one block mass per sphere, no word tested
    ("density", "--ensemble", UNIFORM, "--subset", CG, "--n-max", "12"): (0,
        "859965cb78ba901664854d32aa296a12ab08c5d059b964b117fa8163a1bb6f0e"),
    # a rank-to-binary map over abc, so the candidate is a TransferredEnsemble
    # (the identity-map transfer pin above never builds one)
    ("verify", "transfer", "tests/data/transfer_abc_fixture.json", "--n-max", "12"): (0,
        "29a520a6e641b820440cfcd17ae6330872f80e96eb8f221aabc34b27ec8914bb"),
    ("verify", "cs", "tests/data/cs_fixture.json", "--n-max", "8"): (0,
        "9056bfd236a45ac563959dfbc4f51e04532480965d115b3230393dfc1186b568"),
    # the same map against a uniform binary candidate: a failing
    # rank-preserving transfer, so the pin holds the violation list
    ("verify", "transfer", "tests/data/transfer_abc_wrong_fixture.json", "--n-max", "6"): (1,
        "5b490cda85604a8ec55cb15ff5557fa7b0af5cbda648f198221f5ed689efde65"),
    # ν under-weighs the uniform masses on whole classes of words, so
    # the check fails on runs of points with one shared (got, bound)
    ("verify", "cm", "tests/data/cm_nu_fixture.json", "--n-max", "5"): (1,
        "38556e7a441472fd0f4e59033fee78fb05c1c8c06d4bd0a04a7e67d6609a05f4"),
    # a candidate conditioned on C(n+2) against the C(n+1) equation:
    # members and non-members fail with shared expected masses
    ("verify", "induced", "tests/data/induced_wrong_fixture.json", "--n-max", "6"): (1,
        "8e98ec87bbc47fe25ecb3e6adde5f098815b6db6da6d13d9957f5a10e5448401"),
    ("tm", "run", "tests/data/scanner.json", TAPE_1200, "--budget", "5000"): (0,
        "e3327ad16adee8c38e6200b0db0be485c2c44e194efbcf2c80e2fdcbd7a953dc"),
    ("tm", "run", "tests/data/scanner_one_end.json", TAPE_1200, "--budget", "5000"): (0,
        "71e0f9fcb86139f1da170b376b5e405fc075675bd2145cd3b97ed8f3e4c76492"),
    ("tm", "halts", "tests/data/contains01.json", NTM_1001, "--budget", "1001"): (0,
        "c45b2d55c69addf4c7f611af541401a1f731ad0d078215e42bf7d61ecfce5f27"),
    ("tm", "halts", "tests/data/contains01.json", NTM_1001, "--budget", "1000"): (0,
        "4cc473a5e744aa426a3e2250ca4d3948943a1c5d74499eaba5ae1ad29be39b95"),
    # ν's sampler stream: the draws of every sphere up to 6
    ("control-seq", "--machine", LOOP_ON_ONE, "--ensemble", NU,
     "--poly", "n", "--n-max", "6", "--sample", "50", "--seed", "3"): (0,
        "95bc1fb10ab404c18d72520369599d689951244cba80928d73550b3bfdb0fb0f"),
    # sampled spheres past the enumeration cap: the sweeper's verdicts follow
    # its letters (it starts 1, 1, 1/2, 7/10), and loop_on_one reads one cell
    ("control-seq", "--machine", "tests/data/sweeper_live.json", "--ensemble", UNIFORM3,
     "--poly", "n^2", "--n-max", "24", "--sample", "20", "--seed", "3"): (0,
        "29fab2ce3e0ad13043f4a7ed5845984bc12a04db8ac82dd1a878edf45425edd8"),
    ("control-seq", "--machine", LOOP_ON_ONE, "--ensemble", UNIFORM,
     "--poly", "n", "--n-max", "64", "--sample", "50", "--seed", "7"): (0,
        "b15f97256caeb97a2ce38d16fd7867680c5702e698749ac6d66776539276859e"),
    ("control-seq", "--machine", LOOP_ON_ONE, "--ensemble", NU,
     "--poly", "n", "--n-max", "64", "--sample", "50", "--seed", "7"): (0,
        "3fed457ff24b739bd1333412e5b8872dbc48539ae981c26b06e58c7234632772"),
    # a branching decider whose halts are DontKnow, Yes, No and undecodable
    # tapes; without its answer symbols spheres 2 and 3 read 1/2, not 3/4
    ("control-seq", "--machine", ANSWERS, "--ensemble", UNIFORM,
     "--poly", "n", "--n-max", "8"): (0,
        "ee94cf2cedf3c4ad10d06f7a65ff434121b5a991b8242657785be5c78c9b5626"),
    ("control-seq", "--machine", ANSWERS, "--ensemble", UNIFORM,
     "--poly", "n", "--n-max", "8", "--sample", "200", "--seed", "5"): (0,
        "8b99e019e59638d32d386913d75d8e880fb765dee7676b07e8eb50b16584ff41"),
    # a right-drifting bouncer that never halts (a translated cycle), and
    # below a sweeper that grows its tape at both ends (no cycle of either
    # kind): both runs end on the endless certificate, both searches break
    # at once on a live part with no moves
    ("tm", "run", BOUNCER, "01", "--budget", "8000"): (0,
        "3e545c4306b35ceaeeef1d69954d30c35e5ccf745e2165ecb70e34560b04182d"),
    ("tm", "halts", BOUNCER, "01", "--budget", "8000"): (0,
        "a4247dc1c6b6a03205de312bb06827dc4df9e9a50eb16118a2c8e42c27d1dc97"),
    ("tm", "run", SWEEPER, "01", "--budget", "8000"): (0,
        "3e545c4306b35ceaeeef1d69954d30c35e5ccf745e2165ecb70e34560b04182d"),
    ("tm", "halts", SWEEPER, "01", "--budget", "8000"): (0,
        "a4247dc1c6b6a03205de312bb06827dc4df9e9a50eb16118a2c8e42c27d1dc97"),
    # a branching bouncer none of whose states can reach the final state
    ("tm", "halts", BRANCHER, "01", "--budget", "8000"): (0,
        "a4247dc1c6b6a03205de312bb06827dc4df9e9a50eb16118a2c8e42c27d1dc97"),
}


@pytest.mark.parametrize(
    "argv", list(GOLDEN),
    ids=lambda argv: " ".join(LABELS.get(a, a) for a in argv).replace("tests/data/", ""),
)
def test_cli_output_unchanged(argv, capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    code = main(list(argv))
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == GOLDEN[argv]
