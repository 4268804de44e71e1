"""The benchmark tracer names its targets by module and attribute, so a
move or a rename in src/ would only show in a traced benchmark run.  This
resolves every target the way Tracer.install does, without installing."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_resolves():
    targets = load_tracer().TARGETS
    assert len(targets) >= 20
    for label, modname, attr, _ in targets:
        assert label.startswith(modname + "."), label
        owner = importlib.import_module("tricomplete." + modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            assert isinstance(cls, type), label
            assert callable(cls.__dict__.get(meth)), label  # install wraps the class's own attribute
        else:
            assert callable(getattr(owner, attr, None)), label
