"""Every name the benchmark tracer wraps still resolves in its module.

``benchmark/spans.py`` replaces each (module, attribute) of SPAN_POINTS
with a timing wrapper.  A name that moves away from the module a caller
looks it up in makes the traced run fail or its layer read zero, so this
checks them all without running the benchmark.
"""

from __future__ import annotations

import importlib
import runpy
from pathlib import Path

import streamaug  # noqa: F401  (the tracer installs after this import)

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def test_every_span_point_resolves():
    points = runpy.run_path(str(SPANS))["SPAN_POINTS"]
    assert points
    for _layer, _name, module, attr in points:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{attr}"
