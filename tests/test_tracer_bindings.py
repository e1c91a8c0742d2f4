"""Every name the bench tracer wraps exists where the tracer looks it up.

`bench/tracer.py` rebinds module functions by attribute and methods through
`cls.__dict__`, so renaming or moving one of them would break a traced bench
run without failing anything else.  The tracer is loaded by path and only
read (compiled from its source, so nothing is written under bench/), never
installed.
"""
import pathlib
import types

import pytest

from ellgrid import lattice

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    module = types.ModuleType("ellgrid_bench_tracer")
    module.__file__ = str(TRACER_PATH)
    exec(compile(TRACER_PATH.read_text(encoding="utf-8"), str(TRACER_PATH), "exec"),
         module.__dict__)
    return module


def test_function_spans_are_module_attributes(tracer):
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in tracer.FUNCTION_SPANS
               if not callable(getattr(module, attr, None))]
    assert not missing


def test_traced_methods_are_in_the_class_dict(tracer):
    entries = [(cls, attr) for cls, attr, _ in tracer.METHOD_SPANS + tracer.METHOD_COUNTS]
    entries += [(lattice.LatticePair, attr) for attr in tracer.LATTICE_ACCESSORS]
    missing = [f"{cls.__name__}.{attr}" for cls, attr in entries
               if not callable(cls.__dict__.get(attr))]
    assert not missing


def test_special_wrappers_find_their_targets(tracer):
    for owner, attr in tracer.Tracer()._special_wrappers():
        where = owner.__dict__ if isinstance(owner, type) else vars(owner)
        assert callable(where.get(attr)), f"{owner.__name__}.{attr}"
