"""The benchmark tracer (`perfbench/tracer.py`) finds abch functions by
their qualified names.  A rename that drops a name it counts would crash
`perfbench/run.py --trace`; this test catches it without running the
benchmark."""

import importlib.util
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
