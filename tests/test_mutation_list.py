"""The mutation list in ``mutation/mutants.py`` still fits the code.

Running the mutants takes minutes, so ``mutation/test_mutants.py`` is not part
of this suite. These checks take a moment: an entry applies only while its old
text occurs exactly once in its file, and it can be killed only by tests that
exist.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants",
                                                  ROOT / "mutation" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # module level only defines names
    return module.MUTANTS


MUTANTS = _mutants()


def _test_functions(path):
    tree = ast.parse(path.read_text())
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_exactly_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_every_killing_test_exists(mutant):
    for test_id in mutant.kills:
        path, _, name = test_id.partition("::")
        path = ROOT / path
        assert path.is_file() and name.split("[")[0] in _test_functions(path), test_id
