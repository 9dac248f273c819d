"""The benchmark's span tracer still finds every name it wraps in dyncomp.

``bench/tracing.py`` looks functions up by name, so renaming or deleting one
of them in ``src/`` breaks every traced benchmark run (``--trace 1``). This
installs the tracer on the current package and checks that it restores every
attribute it patched.
"""
import importlib.util
from pathlib import Path

import dyncomp.engine as engine_module

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()  # raises AttributeError for a traced name src/ lacks
        patched = list(tracer._patched)
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original, f"{owner}.{attr} not wrapped"
        engine = engine_module.ComparatorEngine(engine_module.ComparatorConfig())
        engine.simulate(engine_module.typical_op(engine.config))
        spans = tracer.summarize(0, tracer.mark())["spans"]
        assert spans["engine.simulate"]["calls"] == 1
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, f"{owner}.{attr} not restored"
