"""Every name the benchmark's traced run wraps still exists.

``perfbench/spans.py`` replaces module attributes with timing wrappers at
the sites listed in its COARSE and HOT tables; a site that no longer
resolves makes a traced run fail with AttributeError.  The sites are read
with ``getattr`` only: ``install`` is never called, so nothing is wrapped.
"""

import importlib.util
from pathlib import Path

import pytest

import fractree.cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sites():
    spans = _spans()
    return [
        (name, module, attr)
        for table in (spans.COARSE, spans.HOT)
        for name, sites in table.items()
        for module, attr in sites
    ]


@pytest.mark.parametrize(
    "name,module,attr", _sites(), ids=lambda x: x if isinstance(x, str) else x.__name__
)
def test_site_resolves(name, module, attr):
    assert callable(getattr(module, attr)), f"{name}: {module.__name__}.{attr}"


def test_main_resolves():
    assert callable(fractree.cli.main)
