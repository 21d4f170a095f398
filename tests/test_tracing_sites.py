"""Every span site that the benchmark's tracer patches still exists, and
the loop steps through the interconnection's apply site.

`perfbench/tracing.py` wraps functions and methods where their callers
look them up.  A deleted or moved name would only fail under
`perfbench/run.py --trace 1`; this test fails first.  It reads the site
table and resolves each entry without installing the tracer.  A loop that
applied the interconnection without its `apply` would leave the
`interconnect.apply` span empty; the apply count test fails first there.
Likewise a readout inlined into `run` would leave the `pairs.readout` span
empty; the readout count test fails first.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from scatopt import problems
from scatopt.engine import DelayBank, run, run_ensemble

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("_perfbench_tracing", _TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module_name, attr, span", tracing.PATCH_SITES,
                         ids=[f"{m}:{a}" for m, a, _ in tracing.PATCH_SITES])
def test_patch_site_resolves(module_name, attr, span):
    owner, leaf = _resolve(module_name, attr)
    if inspect.isclass(owner):
        # the tracer swaps the class's own entry, not an inherited one
        assert leaf in owner.__dict__, f"{owner.__qualname__} defines no {leaf!r} itself"
        target = owner.__dict__[leaf]
    else:
        target = getattr(owner, leaf)
    assert callable(target), f"{module_name}.{attr} is not callable"


def _resolve(module_name, attr):
    """(owner, leaf) of a site: the module or class that holds it, and its name."""
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


@pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
def test_loop_applies_interconnection_once_per_residual(monkeypatch, name):
    system = problems.build(name, problems.default_instance(name, seed=0)).system
    (module_name, attr), = [(m, a) for m, a, span in tracing.PATCH_SITES
                            if span == "interconnect.apply"]
    owner, leaf = _resolve(module_name, attr)
    apply, calls = getattr(owner, leaf), []

    def counted(self, c):
        calls.append(c.shape)
        return apply(self, c)

    monkeypatch.setattr(owner, leaf, counted)
    for bank in (DelayBank(), DelayBank("asynchronous", 0.1, 0)):
        calls.clear()
        result = run(system, bank, tol=1e-4, max_iters=300)
        assert calls == [(system.dim,)] * len(result.trace.self_residual)
    calls.clear()
    res, _ = run_ensemble(system, [0, 1, 2], p=0.1, tol=1e-4, max_iters=300)
    assert calls == [(3, system.dim)] * res.shape[1]


@pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
def test_run_reads_out_through_the_pair_site_once(monkeypatch, name):
    system = problems.build(name, problems.default_instance(name, seed=0)).system
    plain = run(system, DelayBank(), tol=1e-4, max_iters=300)
    (module_name, attr), = [(m, a) for m, a, span in tracing.PATCH_SITES
                            if span == "pairs.readout"]
    owner, leaf = _resolve(module_name, attr)
    invert, calls = owner.__dict__[leaf], []

    def counted(self, c, d):
        calls.append(len(d))
        return invert(self, c, d)

    monkeypatch.setattr(owner, leaf, counted)
    result = run(system, DelayBank(), tol=1e-4, max_iters=300)
    assert calls == [system.dim]
    assert np.array_equal(result.a, plain.a)
    assert np.array_equal(result.b, plain.b)
