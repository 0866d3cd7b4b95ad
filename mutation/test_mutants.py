"""Every mutant in ``mutants.py`` is killed by the tests named with it.

    python3 -m pytest -q mutation/test_mutants.py

Each mutant patches a copy of ``src/``, ``tests/`` and ``pyproject.toml`` in
a temporary directory and runs only its tests there, all of which must fail.
The copy holds ``pyproject.toml`` too, because its ``pythonpath = ["src"]``
would otherwise put this checkout's ``src`` first. The control case runs
every named test on an unpatched copy, where all of them must pass, so a
failure on a mutant is the mutant's doing. The whole list takes a few
minutes; it is not part of the ``tests/`` suite.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from mutants import MUTANTS  # noqa: E402


def copy_repo(dest, mutant=None):
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", dest)
    if mutant is not None:
        path = dest / mutant.path
        text = path.read_text()
        assert text.count(mutant.old) == 1, f"{mutant.path}: old text must occur once"
        path.write_text(text.replace(mutant.old, mutant.new))


def run_tests(cwd, ids):
    """The pytest exit code and the ids of the tests that failed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *ids],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )
    failed = set(re.findall(r"^FAILED (\S+)", proc.stdout, re.M))
    return proc.returncode, failed, proc.stdout[-3000:]


def test_every_mutant_names_tests():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)
    assert all(m.kills for m in MUTANTS)


def test_named_tests_pass_on_the_unpatched_copy(tmp_path):
    copy_repo(tmp_path)
    ids = sorted({t for m in MUTANTS for t in m.kills})
    code, failed, out = run_tests(tmp_path, ids)
    assert code == 0 and not failed, out


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_is_killed(tmp_path, mutant):
    copy_repo(tmp_path, mutant)
    code, failed, out = run_tests(tmp_path, mutant.kills)
    assert code == 1, out  # 1: tests ran and some failed
    assert failed == set(mutant.kills), out
