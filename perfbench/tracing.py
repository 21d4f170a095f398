"""Span tracing of scatopt's layers from outside the package.

`Tracer.install()` replaces public functions and methods at the place
where their callers look them up (a module attribute or a class
attribute) with timing wrappers, and `Tracer.uninstall()` puts the
originals back.  Nothing under `src/` is edited.  Spans are kept in
memory as parallel lists and written out when the run ends.
"""

from __future__ import annotations

import csv
import gzip
import json
import time

# (module, attribute path, span name).  Where a function is imported by
# name into several modules, each lookup site is listed: the wrapper must
# sit where the caller reads the name.
PATCH_SITES = (
    ("scatopt.problems", "default_instance", "problems.instance"),
    ("scatopt.problems", "build", "problems.build"),
    ("scatopt.problems", "from_constraints", "interconnect.from_constraints"),
    ("scatopt.interconnect", "cayley", "interconnect.cayley"),
    ("scatopt.interconnect", "absorb_sources", "interconnect.absorb_sources"),
    ("scatopt.interconnect", "check_orthonormal", "interconnect.check_orthonormal"),
    ("scatopt.interconnect", "AffineInterconnection.apply", "interconnect.apply"),
    ("scatopt.engine", "System.apply_elements", "elements.bank"),
    ("scatopt.elements", "LinfEpigraph.prox", "elements.epigraph_prox"),
    ("scatopt.engine", "DelayBank.triggers", "engine.triggers"),
    ("scatopt.engine", "run", "engine.run"),
    ("scatopt.engine", "run_ensemble", "engine.run_ensemble"),
    ("scatopt.monitor", "run", "engine.run"),
    ("scatopt.pairs", "PairTransform.invert_many", "pairs.readout"),
    ("scatopt.monitor", "reference_fixed_point", "monitor.reference_fixed_point"),
    ("scatopt.monitor", "certify_eq1", "monitor.certify_eq1"),
    ("scatopt.monitor", "certify_eq2", "monitor.certify_eq2"),
    ("scatopt.oracles", "oracle_lasso_huber", "oracles.solve"),
    ("scatopt.oracles", "oracle_lasso", "oracles.solve"),
    ("scatopt.oracles", "oracle_minimax_lp", "oracles.solve"),
    ("scatopt.oracles", "oracle_svm_qp", "oracles.solve"),
    ("scatopt.cli", "run", "engine.run"),
    ("scatopt.cli", "check_orthonormal", "interconnect.check_orthonormal"),
    ("scatopt.cli", "dissipativity_probe", "elements.dissipativity_probe"),
    ("scatopt.cli", "cmd_run", "cli.run"),
    ("scatopt.cli", "cmd_verify", "cli.verify"),
    ("scatopt.cli", "cmd_compare", "cli.compare"),
)

RUN_SPANS = ("engine.run", "engine.run_ensemble")


class Tracer:
    """In-memory span recorder with counters measured at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.op_names: list[str] = ["(none)"]
        self.op = 0
        self.counters: dict[str, float] = {}
        self._stack = [-1]
        self._saved = []

    # -- operations -------------------------------------------------------

    def begin_op(self, label: str) -> None:
        """Tag the spans that follow with a new operation id."""
        self.op_names.append(label)
        self.op = len(self.op_names) - 1

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, hook=None):
        names, starts, ends, parents, ops = (
            self.names, self.starts, self.ends, self.parents, self.ops)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ops.append(tracer.op)
            ends.append(0.0)
            if hook is not None:
                args, kwargs = hook(names[stack[-1]] if stack[-1] >= 0 else "", args, kwargs)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            return out

        traced.__wrapped__ = fn
        return traced

    def _hook_for(self, name: str):
        """Counters read from a wrapped call's arguments or results."""
        if name == "interconnect.apply":
            def hook(parent, args, kwargs):
                if parent in RUN_SPANS:
                    self.count("engine.candidate_coords", args[1].size)
                return args, kwargs
            return hook
        if name == "engine.run":
            def hook(parent, args, kwargs):
                objective = kwargs.get("objective")
                if objective is not None:
                    kwargs = dict(kwargs, objective=self._span("engine.objective", objective))
                return args, kwargs
            return hook
        return None

    def _wrap_triggers(self, fn):
        traced = self._span("engine.triggers", fn)

        def triggers(bank, system):
            mask = traced(bank, system)
            self.count("engine.adopted_coords", int(mask.sum()))
            return mask

        triggers.__wrapped__ = fn
        return triggers

    def install(self) -> None:
        import importlib

        for module_name, attr, span in PATCH_SITES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if path else getattr(owner, leaf)
            if span == "engine.triggers":
                wrapper = self._wrap_triggers(original)
            else:
                wrapper = self._span(span, original, self._hook_for(span))
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    # -- reduction and output ---------------------------------------------

    def extend(self, spans, op_label: str) -> None:
        """Append spans recorded elsewhere (a child process) under a new op."""
        self.begin_op(op_label)
        base = len(self.starts)
        for name, start, end, parent in spans:
            self.names.append(name)
            self.starts.append(start)
            self.ends.append(end)
            self.parents.append(parent + base if parent >= 0 else self._stack[-1])
            self.ops.append(self.op)

    def layers(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.starts)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[i] - self.starts[i]
        table: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = self.ends[i] - self.starts[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child_time[i]
        return table

    def spans(self):
        return zip(self.names, self.starts, self.ends, self.parents)

    def write(self, spans_path, table_path, extra: dict) -> None:
        with gzip.open(spans_path, "wt", newline="", compresslevel=1) as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start", "end", "parent", "op"])
            for i, (name, start, end, parent) in enumerate(self.spans()):
                writer.writerow([i, name, repr(start), repr(end), parent,
                                 self.op_names[self.ops[i]]])
        payload = {"layers": self.layers(), "counters": self.counters, **extra}
        with open(table_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
