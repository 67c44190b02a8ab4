"""Seeded inputs and op lists for the three benchmark workloads.

An op is one ``gclab`` command line.  Every op comes from a template and
an instance index: ``instance(template, k)`` builds the JSON input files
and argv from a generator seeded by the pair alone, so the inputs of an
op never depend on the workload seed.  The workload seed only picks, for
each slot of a round, which of the ``POOL`` instances of that slot's
template runs.  This keeps the op mix of every round identical across
seeds (so medians compare) while the concrete machines, guards and
alphabets change, and it lets ``refs.json`` hold a reference output for
every op any seed can produce.

Each op also carries its point count: a fixed amount of work per input
that is the same on every commit (see ``WORKLOADS``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

#: Instances per template.  ``refs.json`` records every one of them.
POOL = 8

#: Seeds used while the benchmark was tuned, and the seed kept back for
#: checking a later claim on inputs the change was not written against.
TUNING_SEEDS = tuple(range(1, 26))
HOLDOUT_SEED = 4242

BLANK = "_"
READS = ("0", "1", BLANK)


@dataclass
class Op:
    """One CLI invocation: argv relative to the work directory, the input
    files it reads, and its fixed point count."""

    key: str
    argv: list[str]
    files: dict[str, object] = field(default_factory=dict)
    points: int = 0
    budget: int = 0  # step budget of the machine ladder ops, else 0

    def input_text(self) -> str:
        """A canonical rendering of everything the program is given."""
        return json.dumps({"argv": self.argv, "files": self.files}, sort_keys=True)


def _machine(name, states, delta, final="h"):
    return {
        "name": name,
        "states": list(states) + [final],
        "initial": states[0],
        "final": final,
        "tape_alphabet": ["0", "1"],
        "blank": BLANK,
        "tape": "two-way",
        "delta": [list(t) for t in delta],
    }


def _words_upto(alphabet_size: int, n: int) -> int:
    return sum(alphabet_size**k for k in range(n + 1))


# --- machine families ---------------------------------------------------------


def random_decider(rng: random.Random, branching: bool) -> dict:
    """A small random decider: three working states, six transitions
    (so machine codes have a steady length), one branch when asked."""
    states = ["q0", "q1", "q2"]
    keys = rng.sample([(q, a) for q in states for a in READS], 6)
    delta = [
        (q, a, rng.choice(states + ["h"]), rng.choice("01"), rng.choice("LR"))
        for q, a in keys
    ]
    if branching:
        q, a = keys[0]
        delta.append((q, a, "h", rng.choice("01"), "R"))
    return _machine("decider", states, delta)


def shallow_machine(rng: random.Random) -> dict:
    """A decider that stops within a few steps on most inputs: from q0 it
    halts or breaks on two of the three symbols."""
    states = ["q0", "q1"]
    a_halt, a_move, a_break = rng.sample(READS, 3)
    delta = [
        ("q0", a_halt, "h", rng.choice("01"), "R"),
        ("q0", a_move, "q1", rng.choice("01"), "R"),
        ("q1", rng.choice(READS), "q0", rng.choice("01"), "R"),
        ("q1", rng.choice(READS), "h", rng.choice("01"), "L"),
    ]
    return _machine("shallow", states, delta)


def _cycle(rng: random.Random, moves: str, branch: bool = False) -> list:
    """States c0..c(k-1) in a cycle, each writing a random bit on every
    symbol and moving as ``moves`` says; never halts, never breaks."""
    k = len(moves)
    delta = []
    for i, d in enumerate(moves):
        write = {a: rng.choice("01") for a in READS}
        for a in READS:
            delta.append((f"c{i}", a, f"c{(i + 1) % k}", write[a], d))
    if branch:
        # a second choice that moves into a state with no transitions:
        # the search keeps one extra, short-lived configuration per cycle
        for a in READS:
            delta.append(("c0", a, "dead", rng.choice("01"), "R"))
    return delta


def bouncer(rng: random.Random) -> dict:
    """Two steps right, one left: the tape grows by one cell per three steps."""
    moves = "RRL" * rng.randint(1, 2)
    return _machine("bouncer", [f"c{i}" for i in range(len(moves))], _cycle(rng, moves))


def brancher(rng: random.Random) -> dict:
    """A nondeterministic bouncer whose side branch breaks one step later."""
    moves = "RRL" * rng.randint(1, 2)
    states = [f"c{i}" for i in range(len(moves))] + ["dead"]
    return _machine("brancher", states, _cycle(rng, moves, branch=True))


def sweeper(rng: random.Random) -> dict:
    """Sweeps to the blank at either end, writes a cell there and turns:
    the tape grows by two cells per round trip."""
    flip_r, flip_l = rng.choice("01"), rng.choice("01")
    grow_r, grow_l = rng.choice("01"), rng.choice("01")

    def over(bit: str, flip: str) -> str:
        return bit if flip == "0" else "10"[int(bit)]

    delta = []
    for b in "01":
        delta.append(("right", b, "right", over(b, flip_r), "R"))
        delta.append(("left", b, "left", over(b, flip_l), "L"))
    delta.append(("right", BLANK, "left", grow_r, "L"))
    delta.append(("left", BLANK, "right", grow_l, "R"))
    return _machine("sweeper", ["right", "left"], delta)


FAMILIES = {"bouncer": bouncer, "sweeper": sweeper, "brancher": brancher}

# --- templates ----------------------------------------------------------------

LADDER = (1000, 2000, 4000, 8000)


NU = {"kind": "dbh_nu"}
UNIFORM = {"kind": "uniform", "alphabet": "01"}


def _bundle(rng: random.Random, measure: dict) -> dict:
    """A random decider as its own problem.  The user guard is fixed:
    it sets the image lengths, so it sets most of the work."""
    decider = random_decider(rng, branching=rng.random() < 0.5)
    return {
        "problem": {
            "name": "random-decider",
            "measure": measure,
            "members": {"machine": decider, "guard": "n+1"},
        },
        "decider": decider,
        "decider_guard": "n+1",
        "guard": "n+6",
    }


def _chain_pipeline(measure):
    def build(rng, n):
        return ["reduce", "pipeline", "bundle.json", "--n-max", str(n)], \
            {"bundle.json": _bundle(rng, measure)}, _words_upto(2, n)
    return build


def _chain_bh(rng, n):
    return ["reduce", "bh", "bundle.json", "--n-max", str(n)], \
        {"bundle.json": _bundle(rng, rng.choice([NU, UNIFORM]))}, _words_upto(2, n)


def _chain_universal(rng, n):
    bundle = {"machine": random_decider(rng, branching=rng.random() < 0.5),
              "guard": "n+6"}
    return ["reduce", "universal", "bundle.json", "--n-max", str(n)], \
        {"bundle.json": bundle}, _words_upto(2, n)


def _cg_guard(rng) -> str:
    # the slope sets how far the guard inverse scans, so it stays fixed
    return f"n+{rng.randint(1, 4)}"


def _spheres_nu_sums(rng, n):
    return ["verify", "nu-sums", "--n-max", str(n)], {}, _words_upto(2, n)


def _spheres_induced(rng, n, base):
    subset = {"name": "cg", "g": _cg_guard(rng)}
    fixture = {"base": base, "subset": subset,
               "candidate": {"kind": "induced", "base": base, "subset": subset}}
    return ["verify", "induced", "fixture.json", "--n-max", str(n)], \
        {"fixture.json": fixture}, _words_upto(2, n)


def _spheres_density(rng, n):
    # a uniform base has no closed form for C(g), so every word is tested
    return ["density", "--ensemble", "ensemble.json", "--subset", "subset.json",
            "--n-max", str(n)], \
        {"ensemble.json": UNIFORM,
         "subset.json": {"name": "cg", "g": _cg_guard(rng)}}, _words_upto(2, n)


def _spheres_control(rng, n):
    return ["control-seq", "--machine", "machine.json", "--ensemble", "ensemble.json",
            "--poly", rng.choice(["n", "n+1", "n+2"]), "--n-max", str(n)], \
        {"machine.json": shallow_machine(rng),
         "ensemble.json": UNIFORM}, _words_upto(2, n)


def _alphabet(rng) -> str:
    # three letters: the alphabet size sets the sphere sizes
    return "".join(rng.sample("abcdefgh", 3))


def _spheres_cs(rng, n):
    sigma = _alphabet(rng)
    red = {"kind": "bin_alph", "sigma": sigma}
    mu = {"kind": "uniform", "alphabet": sigma}
    fixture = {"reduction": red, "mu": mu,
               "nu": {"kind": "transferred", "reduction": red, "base": mu}}
    size = len(sigma)
    target = (size**n - 1).bit_length()
    return ["verify", "cs", "fixture.json", "--n-max", str(n)], \
        {"fixture.json": fixture}, _words_upto(size, n) + _words_upto(2, target)


def _spheres_transfer(rng, n):
    sigma = _alphabet(rng)
    red = {"kind": "bin_alph", "sigma": sigma}
    base = {"kind": "uniform", "alphabet": sigma}
    fixture = {"reduction": red, "base": base,
               "candidate": {"kind": "transferred", "reduction": red, "base": base}}
    return ["verify", "transfer", "fixture.json", "--n-max", str(n)], \
        {"fixture.json": fixture}, _words_upto(2, n)


def _spheres_cm(rng, n):
    sigma = _alphabet(rng)
    mu = {"kind": "uniform", "alphabet": sigma}
    fixture = {"reduction": {"kind": "identity", "alphabet": sigma}, "mu": mu, "nu": mu,
               "d": rng.choice(["1", "n+1", "2n+1"])}
    return ["verify", "cm", "fixture.json", "--n-max", str(n)], \
        {"fixture.json": fixture}, _words_upto(len(sigma), n)


def _machines_tm(action, family, budget):
    def build(rng, _n):
        machine = FAMILIES[family](rng)
        word = "".join(rng.choice("01") for _ in range(rng.randint(2, 6)))
        return ["tm", action, "machine.json", word, "--budget", str(budget)], \
            {"machine.json": machine}, budget
    return build


def _machines_sampled(rng, n):
    samples, poly = 8, "n^2"
    argv = ["control-seq", "--machine", "machine.json", "--ensemble", "ensemble.json",
            "--poly", poly, "--n-max", str(n), "--sample", str(samples),
            "--seed", str(rng.randrange(1 << 30))]
    points = samples * sum(k * k for k in range(n + 1))
    return argv, {"machine.json": bouncer(rng),
                  "ensemble.json": UNIFORM}, points


def _templates() -> dict:
    t = {
        "chain.pipeline3": (_chain_pipeline(UNIFORM), 3),
        # the bounded-halting source measure builds the largest sphere
        # tables, so every round holds the chain's peak memory
        "chain.pipeline4": (_chain_pipeline(NU), 4),
        "chain.bh6": (_chain_bh, 6),
        "chain.universal6": (_chain_universal, 6),
        "chain.universal7": (_chain_universal, 7),
        "spheres.nu_sums16": (_spheres_nu_sums, 16),
        "spheres.induced10.nu": (lambda rng, n: _spheres_induced(rng, n, NU), 10),
        "spheres.induced10.uniform": (lambda rng, n: _spheres_induced(
            rng, n, UNIFORM), 10),
        "spheres.density16": (_spheres_density, 16),
        "spheres.control12": (_spheres_control, 12),
        "spheres.control16": (_spheres_control, 16),
        "spheres.cs": (_spheres_cs, 6),
        "spheres.transfer13": (_spheres_transfer, 13),
        "spheres.cm8": (_spheres_cm, 8),
        "machines.sampled32": (_machines_sampled, 32),
    }
    # the brancher is nondeterministic, so only ``tm halts`` can run it
    for family in ("bouncer", "sweeper"):
        for b in LADDER:
            t[f"machines.run.{family}.b{b}"] = (_machines_tm("run", family, b), 0)
    for family in FAMILIES:
        for b in LADDER:
            t[f"machines.halts.{family}.b{b}"] = (_machines_tm("halts", family, b), 0)
    return t


TEMPLATES = _templates()


def instance(template: str, k: int) -> Op:
    """Instance k of a template; depends on nothing else."""
    build, n = TEMPLATES[template]
    rng = random.Random(f"{template}#{k}")
    argv, files, points = build(rng, n)
    budget = int(argv[argv.index("--budget") + 1]) if "--budget" in argv else 0
    return Op(f"{template}#{k}", argv, files, points, budget)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    points: str
    round: tuple[str, ...]  # template of each slot, in run order
    round_s: float  # nominal wall time of one round (2-vCPU x86 VM); sets rounds per run

    def rounds(self, seconds: float) -> int:
        """Rounds in a run of ``seconds``.  Fixed by the nominal round
        time, not measured, so that two commits run the same ops."""
        return max(2, round(seconds / self.round_s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "chain",
            "the paper's headline path: random deciders through the reduction "
            "chain into bounded halting and the universal machine",
            "source words pushed through the chain",
            # two rounds of 26 ops: 20 ops cost less than a pipeline3 op
            # and 20 more, so the median falls in the middle of the 12
            # pipeline3 ops; beyond the 2 pipeline4 ops, the tail falls in
            # the middle of the 18 universal7 ops
            ("chain.pipeline4", "chain.universal7", "chain.pipeline3", "chain.bh6",
             "chain.universal7", "chain.universal6", "chain.universal7", "chain.pipeline3",
             "chain.bh6", "chain.universal7", "chain.universal6", "chain.pipeline3",
             "chain.universal7", "chain.bh6", "chain.universal6", "chain.universal7",
             "chain.pipeline3", "chain.universal7", "chain.bh6", "chain.universal6",
             "chain.universal7", "chain.pipeline3", "chain.universal6", "chain.bh6",
             "chain.universal7", "chain.pipeline3"),
            17.0,
        ),
        Workload(
            "spheres",
            "exhaustive sweeps at the sphere cap: word enumeration, ensemble "
            "mass and Fraction sums, many short machine searches",
            "sphere words enumerated",
            # two rounds of 20 ops: the 6 density16 and control16 ops cost
            # clearly more than the 10 fixed-input nu_sums16 ops, so the
            # tail falls in the middle of those; the 8 transfer13 ops cost
            # clearly less than nu_sums16 and clearly more than the 16
            # short ops, so the median falls in the middle of those
            ("spheres.density16", "spheres.transfer13", "spheres.cs", "spheres.nu_sums16",
             "spheres.control12", "spheres.cs", "spheres.nu_sums16", "spheres.transfer13",
             "spheres.induced10.nu", "spheres.control16", "spheres.nu_sums16", "spheres.cs",
             "spheres.cm8", "spheres.transfer13", "spheres.nu_sums16", "spheres.density16",
             "spheres.induced10.uniform", "spheres.cs", "spheres.nu_sums16",
             "spheres.transfer13"),
            15.0,
        ),
        Workload(
            "machines",
            "long runs of never-halting machine families on a 1k-8k step "
            "budget ladder: nearly all work in the machine layer",
            "step budget of each op",
            tuple(t for t in TEMPLATES if t.startswith("machines.")),
            9.0,
        ),
    )
}


def round_ops(workload: str, rng: random.Random) -> list[Op]:
    """One round: every slot of the workload with a seed-chosen instance."""
    return [instance(t, rng.randrange(POOL)) for t in WORKLOADS[workload].round]


def pool(workload: str) -> list[Op]:
    """Every op any seed of the workload can produce."""
    templates = dict.fromkeys(WORKLOADS[workload].round)
    return [instance(t, k) for t in templates for k in range(POOL)]
