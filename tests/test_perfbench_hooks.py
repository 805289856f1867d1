"""The benchmark's tracer wraps vincstat functions by name; every name it
wraps must still exist, or a traced benchmark pass fails."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.WRAPS


def test_every_traced_function_resolves_in_its_module():
    wraps = _tracer_wraps()
    assert wraps
    for module_name, attr, sites, name, _ in wraps:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), name
        for site in sites:
            importlib.import_module(site)
