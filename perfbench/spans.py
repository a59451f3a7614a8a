"""In-memory spans around the calls into each dilations module.

The tracer replaces every public function of the package's layer modules
(and the references other modules or dispatch tables hold to them) with a
wrapper that records one span per call: name, start, end, parent span, and
the run id shared by all spans of one pass. Counts that need no span (graph
constructions, pool task counts, solver search nodes) are recorded at the
same boundaries. Spans are kept in memory and written out once the pass ends.

Spans come from the benchmark's own wrappers, so they see only the public
boundary of each layer: a solver span covers both its value search and its
witness reconstruction, and which reductions fired inside is not visible.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("graphs", "isomorphism", "hypergraphs", "dilation", "invariants",
          "families", "berge", "harness", "cli")

SOLVERS = {"gamma": "invariants.domination_number",
           "nu": "invariants.matching_number",
           "tau": "invariants.transversal_number"}

SUITE_FUNCTIONS = {"hereditary": "harness.verify_hereditary",
                   "extremal-gamma1": "harness.crosscheck_extremal_gamma1",
                   "extremal-gamma0": "harness.crosscheck_extremal_gamma0",
                   "nonextremal": "harness.verify_nonextremal",
                   "counterexample": "harness.verify_counterexample"}


class Tracer:
    """Spans and counters of one pass; `scope` is "full" or "suite".

    "suite" wraps only the harness suite entry points and the task dispatch,
    for passes whose work runs in pool workers, where spans cannot be seen.
    """

    def __init__(self, run_id: str, scope: str = "full"):
        self.run_id = run_id
        self.scope = scope
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack = [-1]
        self.calls: Counter = Counter()
        self.nodes: Counter = Counter()
        self.max_nodes: Counter = Counter()
        self.span_nodes: dict[int, int] = {}
        self.errors: Counter = Counter()
        self.instances: Counter = Counter()
        self.tasks = 0
        self.constructions = 0
        self._restore: list = []

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block (the pass's root span)."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self.stack[-1]]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self.stack.pop()

    def _observe(self, name: str, index: int, result) -> None:
        node_count = getattr(result, "node_count", None)
        if name in _SOLVER_NAMES and node_count is not None:
            self.span_nodes[index] = node_count
            self.nodes[name] += node_count
            self.max_nodes[name] = max(self.max_nodes[name], node_count)
        elif name in _SUITE_NAMES:
            self.instances[name] += result.instance_count

    def _wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # a generator's work happens on each resume: one span per resume
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                tracer.calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    rec = tracer._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(rec)
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            index = len(tracer.spans)
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                tracer._close(rec)
            tracer._observe(name, index, result)
            return result
        return traced

    # -- installing ------------------------------------------------------

    def install(self, package) -> None:
        """Swap the wrappers into every module of `package` that refers to
        a wrapped function, including values of module-level dicts."""
        import importlib
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if self.scope == "suite" and name not in _SUITE_NAMES:
                    continue
                wrappers[id(obj)] = self._wrap(name, obj)

        harness = modules["harness"]
        run_tasks = harness._run_tasks

        def counted_run_tasks(tasks, worker, jobs):
            self.tasks += len(tasks)
            return run_tasks(tasks, worker, jobs)
        wrappers[id(run_tasks)] = counted_run_tasks

        targets = [m for key, m in sys.modules.items()
                   if m is not None and (key == package.__name__
                                         or key.startswith(package.__name__ + "."))]
        for mod in targets:
            namespace = vars(mod)
            for attr, obj in list(namespace.items()):
                if id(obj) in wrappers:
                    self._set(namespace, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            self._set(obj, key, wrappers[id(value)])

        if self.scope == "full":
            graph_cls = modules["graphs"].Graph
            init = graph_cls.__init__

            def counted_init(g, *args, **kwargs):
                self.constructions += 1
                init(g, *args, **kwargs)
            self._set_attr(graph_cls, "__init__", counted_init)
            hyper_cls = modules["hypergraphs"].Hypergraph
            self._set_attr(hyper_cls, "closed_neighborhoods",
                           self._wrap("hypergraphs.closed_neighborhoods",
                                      hyper_cls.closed_neighborhoods))

    def _set(self, mapping: dict, key, value) -> None:
        old = mapping[key]
        self._restore.append(lambda: mapping.__setitem__(key, old))
        mapping[key] = value

    def _set_attr(self, cls, attr: str, value) -> None:
        old = vars(cls)[attr]
        self._restore.append(lambda: setattr(cls, attr, old))
        setattr(cls, attr, value)

    def uninstall(self) -> None:
        """Put every replaced function back, in reverse order."""
        while self._restore:
            self._restore.pop()()

    # -- reading ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per name: span time minus the time covered by its child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def wall_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _parent in self.spans:
            out[name] += end - start
        return out

    def nodes_by_suite(self) -> dict[str, int]:
        """Solver nodes summed under each suite span (parents precede children)."""
        suite_of: list = [None] * len(self.spans)
        totals: Counter = Counter()
        for i, (name, _s, _e, parent) in enumerate(self.spans):
            if name in _SUITE_NAMES:
                suite_of[i] = name
            elif parent >= 0:
                suite_of[i] = suite_of[parent]
            if suite_of[i] is not None and name in _SOLVER_NAMES:
                totals[suite_of[i]] += self.span_nodes.get(i, 0)
        return dict(totals)

    def write(self, path: Path) -> None:
        """Gzipped JSON lines: a header with the run id and the span names,
        then one span per line as [name index, start, end, parent id]; a
        span's id is its line number after the header, counting from 0."""
        names = sorted({rec[0] for rec in self.spans})
        index = {name: i for i, name in enumerate(names)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"run_id": self.run_id, "scope": self.scope,
                                 "names": names, "spans": len(self.spans)}) + "\n")
            fh.writelines(f"[{index[name]},{start!r},{end!r},{parent}]\n"
                          for name, start, end, parent in self.spans)


_SOLVER_NAMES = frozenset(SOLVERS.values())
_SUITE_NAMES = frozenset(SUITE_FUNCTIONS.values())
