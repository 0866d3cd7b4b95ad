"""The benchmark traces adadrug functions by name; each name must still exist.

``perfbench/run.py`` lists the traced functions in ``SPANS`` as
``<module>.<attribute>[.<attribute>]``. Deleting or renaming one of them
fails here, in the fast suite, not only in the benchmark's own tests.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)  # module level only defines names
    return run.SPANS


@pytest.mark.parametrize("span", _spans())
def test_every_perfbench_span_is_an_adadrug_callable(span):
    module_name, *path = span.split(".")
    owner = importlib.import_module(f"adadrug.{module_name}")
    for part in path:
        assert hasattr(owner, part), f"{span}: adadrug.{module_name} has no {part}"
        owner = getattr(owner, part)
    assert callable(owner), span
