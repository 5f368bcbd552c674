"""The benchmark's traced run wraps program names listed in
``perfbench/spans.py``; `Tracer.install` fails on the first one missing."""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for short, qualnames in spans.WRAPPED.items():
        mod = importlib.import_module(f"tilelab.{short}")
        for qualname in qualnames:
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                target = getattr(mod, cls_name, None)
                found = vars(target).get(attr) if inspect.isclass(target) else None
            else:
                found = getattr(mod, qualname, None)
            if not inspect.isfunction(found):
                missing.append(f"{short}.{qualname}")
    assert not missing, missing
