"""Per-layer tracing of one ``gclab`` process, from outside the package.

``Tracer.install()`` wraps the public functions of each layer after
``gclab.cli`` is imported.  Names imported by value (``from .machine
import step``) are separate bindings, so every module attribute that is
the original function is rebound to the wrapper; methods are wrapped on
each class that defines them (``mass`` on every ensemble subclass).

Calls nest (``bh_member`` -> evaluator -> search -> ``step``), so each
wrapper pushes a frame on one shared stack: a call's self time is its
duration minus the time of the wrapped calls made inside it.  Nothing
is stored per call; every wrapped function folds into a running
(calls, total seconds, self seconds) triple, which keeps hot leaves such
as ``step`` and ``Word.text`` at a few counters.
"""

from __future__ import annotations

import importlib
import time

LAYERS = ("words", "machine", "measure", "genericity", "reductions", "bhp", "cli")

_perf = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # key -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._modules = [importlib.import_module("gclab")] + [
            importlib.import_module(f"gclab.{m}") for m in LAYERS
        ]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, key: str, fn, counter=None):
        """Time ``fn`` under ``key``; ``counter=(name, f)`` also adds
        f(result) to the named count."""
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        counts = self.counts

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                inner = stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - inner
                if stack:
                    stack[-1] += dt
            if counter is not None:
                name, f = counter
                counts[name] = counts.get(name, 0) + f(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def function(self, module: str, name: str, key: str, counter=None) -> None:
        """Wrap a module-level function and rebind every alias of it."""
        mod = importlib.import_module(f"gclab.{module}")
        orig = getattr(mod, name, None)
        if orig is None:
            self.missing.append(f"{module}.{name}")
            return
        wrapped = self._wrap(key, orig, counter)
        for m in self._modules:
            for attr, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, attr, wrapped)

    def method(self, cls, name: str, key: str, counter=None) -> None:
        if name not in vars(cls):
            self.missing.append(f"{cls.__name__}.{name}")
            return
        setattr(cls, name, self._wrap(key, vars(cls)[name], counter))

    def install(self) -> "Tracer":
        from gclab import bhp, genericity, measure, reductions, words

        # words
        sphere = words.Alphabet.sphere
        tracer = self

        def counted_sphere(alphabet, n):
            for w in sphere(alphabet, n):
                tracer.count("words.sphere_words")
                yield w

        words.Alphabet.sphere = counted_sphere
        self.method(words.Word, "text", "words.text")
        self.method(words.Alphabet, "word", "words.word")

        # machine
        self.function("machine", "step", "machine.step", ("machine.successors", len))
        self.function("machine", "_search_halting", "machine.search")
        self.function("machine", "run_deterministic", "machine.run")
        self.function("machine", "load_machine", "cli.load")

        # measure
        ensembles, todo = [], [measure.SphericalEnsemble]
        while todo:
            cls = todo.pop()
            ensembles.append(cls)
            todo.extend(cls.__subclasses__())
        for cls in ensembles:
            if "mass" in vars(cls):
                self.method(cls, "mass", "measure.mass")
            if "mu_star" in vars(cls):
                self.method(cls, "mu_star", "measure.mu_star")
        table = measure.SphericalEnsemble._sphere_table
        build = self._wrap("measure.table_build", table)

        def counted_table(ensemble, n):
            if n in ensemble._tables:
                tracer.count("measure.table_hits")
                return table(ensemble, n)
            return build(ensemble, n)

        measure.SphericalEnsemble._sphere_table = counted_table
        for name in ("verify_transfer", "verify_induced"):
            self.function("measure", name, "measure.verify")

        # genericity
        self.function("genericity", "exceeds_bound", "genericity.exceeds")
        for name in ("control_sequence", "density_sequence"):
            self.function("genericity", name, "genericity.sequence")
        self.function("genericity", "sample_sphere", "genericity.sample",
                      ("genericity.samples", len))
        self.method(genericity.Polynomial, "__call__", "genericity.poly")

        # reductions
        self.method(reductions.Reduction, "apply", "reductions.apply")
        for name in ("verify_cs", "verify_cm", "verify_size_invariance",
                     "check_control_transfer", "check_control_transfer_cm"):
            self.function("reductions", name, "reductions.verify")

        # bhp
        self.method(bhp.LongevityGuard, "__call__", "bhp.guard")
        self.function("bhp", "guard_inverse", "bhp.guard_inverse")
        self.function("bhp", "x_double_prime", "bhp.xdp")
        self.function("bhp", "scan_numeral", "bhp.scan_numeral")
        self.function("bhp", "bh_member", "bhp.member", ("bhp.member_true", int))
        for name in ("verify_membership", "verify_measure_decrease",
                     "verify_red2bhu_membership", "verify_red2bhu_measure",
                     "completeness_pipeline"):
            self.function("bhp", name, "bhp.verify")

        # cli
        self.function("cli", "_load_json", "cli.load")
        self.function("cli", "_write_output", "cli.emit")
        return self

    def snapshot(self) -> dict:
        return {"stats": self.stats, "counts": self.counts, "missing": self.missing}
