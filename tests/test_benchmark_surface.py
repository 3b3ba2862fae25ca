"""Every library function the benchmark's tracer wraps must still exist.

`perfbench/tracer.py` names the functions it traces in `LAYERS`; a name that
no longer resolves would only fail when the benchmark runs, so check it here.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{layer}.{fn}" for layer, (module, fns) in tracer.LAYERS.items()
               for fn in fns if not callable(getattr(module, fn, None))]
    assert tracer.LAYERS and not missing
