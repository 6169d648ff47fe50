"""The benchmark tracer (`perfbench/tracer.py`) finds abch functions by
their qualified names.  A rename that drops a name it counts would crash
`perfbench/run.py --trace`, and one that drops a name it times would zero a
per-layer time; these tests catch both without running the benchmark."""

import importlib.util
import inspect
import os

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_counted_name_is_traced():
    tracer = _load_tracer()
    t = tracer.Tracer()
    missing = [n for names in tracer.CALL_COUNTS.values() for n in names if n not in t.names]
    assert missing == []
    # the assemble hook splits time by `isinstance(setting, abch.setting.NumericSetting)`
    pre, _ = t._hooks(tracer.ASSEMBLE)
    assert pre is not None


# TIME_GROUPS names that no longer exist in abch; the group keeps timing its
# other names.  `linalg.projection_matrix_onto` was deleted, and the harness
# still lists it under `linalg.project_s` (an open perfbench defect).
KNOWN_STALE_TIMED = {"linalg.projection_matrix_onto"}


def test_every_timed_name_is_traced():
    # a renamed function would silently read 0 s in its per-layer time
    tracer = _load_tracer()
    names = tracer.Tracer().names
    missing = {
        pattern
        for patterns in tracer.TIME_GROUPS.values()
        for pattern in patterns
        if not any(tracer._matches(pattern, name) for name in names)
    }
    assert missing == KNOWN_STALE_TIMED


def test_no_traced_callable_is_a_generator():
    # cProfile counts every resume of a generator as a call, the tracer counts
    # one, so `perfbench/run.py --check-trace` would report a mismatch
    tracer = _load_tracer()
    gens = [t.name for t in tracer.discover() if inspect.isgeneratorfunction(inspect.unwrap(t.fn))]
    assert gens == []
