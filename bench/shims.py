"""Timing shims for the traced run, installed from outside the package.

Each public function of a layer is replaced, in every module that
holds a reference to it, by a shim that counts calls and accumulates
total and self time.  Self time is a call's duration minus the time
spent in shimmed calls made inside it.  Calls of the functions named
in ``SPANNED`` (few, long calls) are also kept as spans in memory:
name, start, end and the enclosing span, with the question that caused
them as the root.  Nothing is written until the run ends.
"""

from __future__ import annotations

import contextlib
import sys
import time
from dataclasses import dataclass, field

from bpsing import functor, gmod, grading, linalg, mforacle, qalg, stable, tilting

# (layer, owner, attribute names); an owner is a module or a class
LAYERS = (
    ("grading", grading, ("normalize",)),
    ("grading", grading.GradeElement, ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__le__", "__ge__")),
    ("stable", stable.StableObject, ("canonical",)),
    ("stable", stable, ("hom_dim",)),
    ("mforacle", mforacle, ("mf_of", "stable_hom_dim_oracle", "oracle_hom")),
    ("linalg", linalg, ("rank_mod",)),
    ("tilting", tilting, ("hom_matrix", "verify_tilting", "glue")),
    ("functor", functor, ("reduce", "insert", "check_recollement")),
    ("gmod", gmod, ("module_hom_dim", "adjunction_check", "phi0_module", "psi0_module", "make_E", "make_simple")),
    ("qalg", qalg, ("coxeter_polynomial",)),
)
SPANNED = {
    "mforacle.mf_of",
    "mforacle.stable_hom_dim_oracle",
    "linalg.rank_mod",
    "tilting.hom_matrix",
    "tilting.verify_tilting",
    "tilting.glue",
    "functor.check_recollement",
    "qalg.coxeter_polynomial",
}


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    stats: dict[str, Stat] = field(default_factory=dict)
    originals: dict[str, object] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    # per open shimmed call: time spent in shimmed calls inside it
    _child_s: list[float] = field(default_factory=list)
    _open_spans: list[int] = field(default_factory=list)
    rank_cells: int = 0
    rank_max_cells: int = 0
    rank_pivots: int = 0
    hom_unknown: int = 0

    def shim(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        child_s = self._child_s
        clock = time.perf_counter
        spanned = name in SPANNED
        observe = {"linalg.rank_mod": self._observe_rank, "stable.hom_dim": self._observe_hom}.get(name)

        def timed(*args, **kwargs):
            span = self._open(name) if spanned else None
            child_s.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - start
                inner = child_s.pop()
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - inner
                if child_s:
                    child_s[-1] += dt
                if span is not None:
                    self._close(span)
            if observe is not None:
                observe(span, args, result)
            return result

        return timed

    def _open(self, name: str, **attrs) -> int:
        parent = self._open_spans[-1] if self._open_spans else None
        self.spans.append({"id": len(self.spans), "parent": parent, "name": name, "start": time.perf_counter(), **attrs})
        self._open_spans.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, span: int) -> None:
        self._open_spans.pop()
        self.spans[span]["end"] = time.perf_counter()

    @contextlib.contextmanager
    def question(self, label: str):
        """Span of one question; the layer spans inside it are its children."""
        span = self._open("question", label=label)
        try:
            yield
        finally:
            self._close(span)

    def _observe_rank(self, span, args, rank) -> None:
        rows, cols = args[0].shape
        self.rank_cells += rows * cols
        self.rank_max_cells = max(self.rank_max_cells, rows * cols)
        self.rank_pivots += rank
        self.spans[span].update(shape=[rows, cols], rank=rank)

    def _observe_hom(self, span, args, answer) -> None:
        self.hom_unknown += answer is None

    def install(self, extra_modules=()) -> None:
        """Replace every reference to a shimmed function, in the package
        modules (including re-exports) and in ``extra_modules``."""
        modules = [m for k, m in sys.modules.items() if k == "bpsing" or k.startswith("bpsing.")]
        modules += list(extra_modules)
        for layer, owner, names in LAYERS:
            for attr in names:
                original = vars(owner)[attr]
                self.originals[f"{layer}.{attr}"] = original
                shim = self.shim(f"{layer}.{attr}", original)
                if isinstance(owner, type):
                    setattr(owner, attr, shim)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, shim)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced job."""

        def self_s(prefix: str) -> float:
            return sum(s.self_s for k, s in self.stats.items() if k.startswith(prefix))

        def stat(name: str) -> Stat:
            return self.stats.get(name, Stat())

        info = self.originals["mforacle.oracle_hom"].cache_info()
        lookups = info.hits + info.misses
        caches = (self.originals["mforacle.mf_of"], mforacle._monomial_basis, self.originals["mforacle.oracle_hom"])
        return {
            "grading.normalize.calls": stat("grading.normalize").calls,
            "grading.self_s": self_s("grading."),
            "stable.canonical.calls": stat("stable.canonical").calls,
            "stable.canonical.self_s": stat("stable.canonical").self_s,
            "stable.hom_dim.calls": stat("stable.hom_dim").calls,
            "stable.hom_dim.self_s": stat("stable.hom_dim").self_s,
            "stable.hom_dim.unknown": self.hom_unknown,
            "mforacle.mf_of.calls": stat("mforacle.mf_of").calls,
            "mforacle.mf_of.self_s": stat("mforacle.mf_of").self_s,
            "mforacle.stable_hom_dim_oracle.self_s": stat("mforacle.stable_hom_dim_oracle").self_s,
            "mforacle.oracle_hom.hit_ratio": info.hits / lookups if lookups else 0.0,
            "mforacle.cache_entries": sum(c.cache_info().currsize for c in caches),
            "linalg.rank_mod.calls": stat("linalg.rank_mod").calls,
            "linalg.rank_mod.s": stat("linalg.rank_mod").total_s,
            "linalg.rank_mod.cells": self.rank_cells,
            "linalg.rank_mod.max_cells": self.rank_max_cells,
            "linalg.rank_mod.pivots": self.rank_pivots,
            "tilting.hom_matrix.self_s": stat("tilting.hom_matrix").self_s,
            "tilting.verify_tilting.self_s": stat("tilting.verify_tilting").self_s,
            "tilting.glue.self_s": stat("tilting.glue").self_s,
            "functor.reduce.calls": stat("functor.reduce").calls,
            "functor.insert.calls": stat("functor.insert").calls,
            "functor.self_s": self_s("functor."),
            "gmod.module_hom_dim.calls": stat("gmod.module_hom_dim").calls,
            "gmod.self_s": self_s("gmod."),
            "qalg.coxeter_polynomial.calls": stat("qalg.coxeter_polynomial").calls,
            "qalg.coxeter_polynomial.self_s": stat("qalg.coxeter_polynomial").self_s,
        }
