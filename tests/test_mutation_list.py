"""The mutation list in ``mutation/mutants.py`` still fits the code.

Running the mutants takes minutes, so ``mutation/test_mutants.py`` is not part
of this suite. These checks take a moment: an entry applies only while its old
text occurs exactly once in its file, and it can be killed only by tests that
exist, each id resolved down to its parameters.
"""

import functools
import importlib.util
import subprocess
import sys
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


@functools.cache
def _collected_ids():
    """Every test id in the files the mutants name, from one
    ``pytest --collect-only`` run over those files."""
    files = sorted({test_id.partition("::")[0] for m in MUTANTS for test_id in m.kills})
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         *files], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return set(proc.stdout.splitlines())


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_exactly_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_every_killing_test_exists(mutant):
    assert set(mutant.kills) <= _collected_ids(), set(mutant.kills) - _collected_ids()
