"""Every function the benchmark's tracer patches by name still resolves.

``perfbench/tracer.py`` finds each (module, attribute) pair of ``SPANNED``
and ``COUNTED`` with ``getattr`` on the module, and a "Class.method" in the
class's own ``__dict__``.  A rename or deletion in newtonpoly would otherwise
surface only when a traced benchmark run installs the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)

NAMES = sorted({(module, attribute) for module, attribute, _ in tracer.SPANNED + tracer.COUNTED})


@pytest.mark.parametrize("module_name, attribute", NAMES,
                         ids=[f"{module}.{attribute}" for module, attribute in NAMES])
def test_traced_name_resolves(module_name, attribute):
    module = importlib.import_module(f"newtonpoly.{module_name}")
    if "." in attribute:
        class_name, method = attribute.split(".")
        target = getattr(module, class_name).__dict__[method]
    else:
        target = getattr(module, attribute)
    assert callable(target)
