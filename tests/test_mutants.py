"""The mutant table of ``scripts/mutants.py`` still matches the code.

Running the mutants is left to the script; this checks only that each
row's old text occurs exactly once in its file and that its tests exist,
so that a change that moves mutated code or renames a test has to update
the row.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once(mutant):
    text = (ROOT / "src" / "randerslab" / mutant.file).read_text(
        encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests
    for node in mutant.tests:
        # the node's file defines its test function
        path, *_, name = node.split("::")
        assert f"def {name.split('[')[0]}(" in (ROOT / path).read_text(
            encoding="utf-8")
