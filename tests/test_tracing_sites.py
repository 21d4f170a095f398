"""Every span site that the benchmark's tracer patches still exists.

`perfbench/tracing.py` wraps functions and methods where their callers
look them up.  A deleted or moved name would only fail under
`perfbench/run.py --trace 1`; this test fails first.  It reads the site
table and resolves each entry without installing the tracer.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("_perfbench_tracing", _TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module_name, attr, span", tracing.PATCH_SITES,
                         ids=[f"{m}:{a}" for m, a, _ in tracing.PATCH_SITES])
def test_patch_site_resolves(module_name, attr, span):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if inspect.isclass(owner):
        # the tracer swaps the class's own entry, not an inherited one
        assert leaf in owner.__dict__, f"{owner.__qualname__} defines no {leaf!r} itself"
        target = owner.__dict__[leaf]
    else:
        target = getattr(owner, leaf)
    assert callable(target), f"{module_name}.{attr} is not callable"
