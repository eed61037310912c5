"""Every function the benchmark tracer wraps still exists under its traced name.

The tracer (``bench/tracer.py``) resolves each ``LAYERS`` entry by name when
``bench/run.py --trace 1`` starts; a renamed or removed function would only
show there as a ``KeyError``.  This test makes it a test failure instead.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.tracer import LAYERS, _resolve  # noqa: E402


@pytest.mark.parametrize("name,module,qualname", LAYERS, ids=[layer[0] for layer in LAYERS])
def test_traced_function_resolves(name, module, qualname):
    assert callable(_resolve(module, qualname)), name
