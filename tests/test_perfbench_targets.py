"""The names the benchmark tracer patches must exist in the package.

``perfbench/tracing.py`` wraps each ``(layer, module, name)`` of its
``TARGETS``, plus ``cli.main``, by ``getattr`` on the module. A name deleted
or renamed in the package would otherwise show up only in a perfbench run.
The tracer is loaded from its path; it imports only the standard library.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return (("cli", "cli", "main"),) + tuple(module.TARGETS)


@pytest.mark.parametrize("layer, where, name", _targets())
def test_tracer_target_resolves(layer, where, name):
    assert callable(getattr(importlib.import_module(f"nhbloch.{where}"), name))
