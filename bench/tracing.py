"""Run-time call tracing for the benchmark's traced run.

`Tracer.install` wraps, from outside the package, every public callable of the
graphhodge layer modules: module-level functions and the public methods of the
public classes each module defines. It also re-points every name under which
another package module imported one of them (`graphhodge.decompose.coboundary`,
`graphhodge.games.hodge_laplacian`, `graphhodge.cli.rank`, the names the
package `__init__` re-exports), plus scipy's `lsqr` as imported by
`graphhodge.decompose`, so that solver iterations are counted where the
solver is called. Nothing in the package is edited; `uninstall` restores every
attribute it replaced. The untraced run never constructs a Tracer.

Each call records a span `[name, start, end, parent]` in memory. Self time is
a span's duration minus the durations of its direct children; the program is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import weakref
from collections import defaultdict

LAYERS = (
    "complexes",
    "cochains",
    "operators",
    "spectral",
    "decompose",
    "hodgerank",
    "games",
    "nonlinear",
    "textio",
    "cli",
)

# lsqr's istop values that graphhodge.decompose accepts as converged.
LSQR_OK = (0, 1, 2, 4, 5)


class Tracer:
    """Wraps graphhodge's public callables and records spans and counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._builds: dict[str, dict] = defaultdict(dict)
        self._hooks = {
            "complexes.enumerate_cliques": self._on_cliques,
            "operators.coboundary": self._on_coboundary,
            "operators.hodge_laplacian": self._on_laplacian,
            "spectral.spectrum": self._on_spectrum,
            "decompose.lsqr": self._on_lsqr,
            "textio.json_dumps": self._on_json,
            "nonlinear.cheeger_constant": self._on_cheeger,
            "games.strategy_graph": self._on_strategy_graph,
        }

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("graphhodge")
        modules = {layer: importlib.import_module(f"graphhodge.{layer}") for layer in LAYERS}
        originals: dict[int, tuple[object, object]] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    originals[id(obj)] = (obj, wrapper)
                    self._set(mod, attr, wrapper)
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{layer}.{attr}", obj)
        decompose = modules["decompose"]
        wrapper = self._wrap("decompose.lsqr", decompose.lsqr)
        originals[id(decompose.lsqr)] = (decompose.lsqr, wrapper)
        self._set(decompose, "lsqr", wrapper)
        # Aliases: `from .operators import coboundary` and friends.
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_methods(self, prefix: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                replacement = staticmethod(self._wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                replacement = self._wrap(name, raw)
            else:
                continue  # properties, cached properties, class constants
            self._patched.append((cls, attr, raw))
            setattr(cls, attr, replacement)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -- counters ---------------------------------------------------------

    def _distinct(self, name: str, key: tuple, *objects) -> None:
        """Count a build as distinct unless the same live objects built it before."""
        seen = self._builds[name]
        refs = seen.get(key)
        if refs is None or any(ref() is not obj for ref, obj in zip(refs, objects)):
            seen[key] = tuple(weakref.ref(obj) for obj in objects)
            self.counts[f"{name}.distinct"] += 1

    def _on_cliques(self, args, kwargs, cx) -> None:
        for order in (2, 3, 4):
            if order <= cx.max_order:
                self.counts[f"complexes.cliques.k{order}"] += len(cx.levels[order - 1])

    def _on_coboundary(self, args, kwargs, op) -> None:
        self.counts["operators.coboundary.nnz"] += op.matrix.nnz
        self._distinct("operators.coboundary", (id(op.complex), op.degree), op.complex)

    def _on_laplacian(self, args, kwargs, lap) -> None:
        weights = lap.weights
        if weights.mode == "unit":
            self._distinct("operators.hodge_laplacian", (id(lap.complex), lap.degree, "unit"), lap.complex)
        else:
            key = (id(lap.complex), lap.degree, id(weights))
            self._distinct("operators.hodge_laplacian", key, lap.complex, weights)

    def _on_spectrum(self, args, kwargs, spec) -> None:
        dim = float(spec.eigenvalues.size)
        self.counts["spectral.spectrum.max_dim"] = max(self.counts["spectral.spectrum.max_dim"], dim)

    def _on_lsqr(self, args, kwargs, result) -> None:
        istop, itn = result[1], result[2]
        self.counts["decompose.lsqr.iters"] += int(itn)
        self.counts["decompose.lsqr.failed"] += int(istop not in LSQR_OK)

    def _on_json(self, args, kwargs, text) -> None:
        self.counts["textio.json_dumps.bytes"] += len(text.encode())

    def _on_cheeger(self, args, kwargs, result) -> None:
        graph = args[0] if args else kwargs["graph"]
        # computed as 2^(n-1) from n, not counted inside the scan
        self.counts["nonlinear.cheeger_constant.cuts"] += 2 ** (graph.n_vertices - 1)

    def _on_strategy_graph(self, args, kwargs, sg) -> None:
        form = args[0] if args else kwargs["form"]
        self._distinct("games.strategy_graph", (id(form),), form)

    # -- analysis ---------------------------------------------------------

    def self_times(self, start: int = 0, stop: int | None = None) -> dict[str, list[float]]:
        """name -> [calls, self seconds, inclusive seconds] over spans[start:stop]."""
        stop = len(self.spans) if stop is None else stop
        child = defaultdict(float)
        for name, t0, t1, parent in self.spans[start:stop]:
            if parent >= start:
                child[parent] += t1 - t0
        table: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for index in range(start, stop):
            name, t0, t1, _ = self.spans[index]
            row = table[name]
            row[0] += 1
            row[1] += (t1 - t0) - child[index]
            row[2] += t1 - t0
        return dict(table)

    def root_time(self, start: int = 0, stop: int | None = None) -> float:
        """Seconds covered by top-level spans in spans[start:stop]."""
        stop = len(self.spans) if stop is None else stop
        return sum(t1 - t0 for _, t0, t1, parent in self.spans[start:stop] if parent < start)

    @staticmethod
    def useful_ratio(name: str, calls: int, counts: dict[str, float]) -> float:
        """Distinct builds per call; 1.0 when never called (nothing was wasted)."""
        return counts.get(f"{name}.distinct", 0) / calls if calls else 1.0
