"""Per-layer tracing of relred from outside its source.

``Tracer`` replaces the public functions of each relred module, in every
module namespace that binds them, with wrappers that time a span per call,
and puts the originals back when it exits.  Spans nest on one stack (the
benchmark runs one closed-loop client and no threads); a span's self time
is its duration minus the time covered by the wrapped spans inside it.

Layers are the package modules, with ``analysis`` split into the census
(``census``, ``census_sampled``) and the deciders (everything else).  The
``cli`` module holds click commands rather than functions, so the harness
wraps each CLI invocation in a ``cli.main`` span instead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

MODULES = ("core", "formula", "diagrams", "reducers", "dependencies", "analysis")
CENSUS_FUNCTIONS = {"census", "census_sampled"}
BUNDLE_IO = {"formula.save_certificate", "formula.load_certificate",
             "formula.parse", "formula.render"}
LAYERS = ("cli", "core", "formula", "diagrams", "reducers", "dependencies",
          "analysis.deciders", "analysis.census")


def layer_of(name: str) -> str:
    """``"analysis.census"`` for ``"analysis.census"``, ``"core"`` for
    ``"core.Relation.make"`` and so on."""
    module, _, rest = name.partition(".")
    if module == "analysis":
        return "analysis.census" if rest in CENSUS_FUNCTIONS else "analysis.deciders"
    return module


class Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Context manager: wraps on enter, restores on exit.

    ``stats`` maps a qualified name such as ``"core.join"`` to its call
    count and self time; ``relations_built``, ``rows_built`` and
    ``max_rows`` count ``Relation.__post_init__`` calls and their sizes,
    and ``relations_tested`` adds up what each census call reports.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []
        self.relations_built = 0
        self.rows_built = 0
        self.max_rows = 0
        self.relations_tested = 0

    # -- spans ------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """A wrapper recording a span ``name`` around ``fn``; ``after`` is
        called with the arguments and the result when the call returns."""
        st = self.stats.setdefault(name, Stat())
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- installing -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _relation_built(self, args, _result) -> None:
        n = len(args[0].rows)
        self.relations_built += 1
        self.rows_built += n
        if n > self.max_rows:
            self.max_rows = n

    def _census_done(self, _args, row) -> None:
        self.relations_tested += row.samples if row.samples is not None else row.total

    def __enter__(self) -> "Tracer":
        mods = {m: importlib.import_module(f"relred.{m}") for m in MODULES}
        wrappers: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                after = (self._census_done if short == "analysis"
                         and attr in CENSUS_FUNCTIONS else None)
                wrappers[id(fn)] = self.wrap(f"{short}.{attr}", fn, after)
        core, formula = mods["core"], mods["formula"]
        self._set(core.Relation, "__post_init__", self.wrap(
            "core.Relation.__post_init__", core.Relation.__post_init__,
            self._relation_built))
        self._set(core.Relation, "make", staticmethod(self.wrap(
            "core.Relation.make", core.Relation.make)))
        self._set(formula.ReductionCertificate, "__post_init__", self.wrap(
            "formula.ReductionCertificate.__post_init__",
            formula.ReductionCertificate.__post_init__))
        # rebind in every namespace that holds an original, including
        # names imported by name (``diagrams.evaluate``) and the package
        namespaces = [m for name, m in sys.modules.items()
                      if m is not None and (name == "relred" or name.startswith("relred."))]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    self._set(mod, attr, w)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reading ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of everything this tracer recorded."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_ms"] = 0.0
        for name, st in self.stats.items():
            layer = layer_of(name)
            out[f"{layer}.self_ms"] += st.self_s * 1e3
            if name != "core.Relation.__post_init__":
                out[f"{layer}.calls"] += st.calls
        validate = self.stats.get("core.Relation.__post_init__", Stat())
        out["core.relations_built"] = self.relations_built
        out["core.rows_built"] = self.rows_built
        out["core.validate_ms"] = validate.total_s * 1e3
        out["core.max_rows"] = self.max_rows
        out["formula.evaluations"] = self.stats.get("formula.evaluate", Stat()).calls
        out["formula.certificates_built"] = self.stats.get(
            "formula.ReductionCertificate.__post_init__", Stat()).calls
        out["formula.bundle_io_ms"] = sum(
            self.stats[n].self_s for n in BUNDLE_IO if n in self.stats) * 1e3
        out["analysis.census.relations_tested"] = self.relations_tested
        return out

    def top(self, k: int = 12) -> list[tuple[str, int, float]]:
        """The k functions with the most self time: (name, calls, self ms)."""
        rows = [(n, st.calls, st.self_s * 1e3) for n, st in self.stats.items() if st.calls]
        return sorted(rows, key=lambda r: -r[2])[:k]
