"""The mutation gate's anchors: each mutant's old text occurs exactly once
in its file, and the mutated file still parses.  A refactor that moves an
anchor fails here at once, instead of leaving ``mutants/run.py`` to
report an error later."""
import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "mutants_run", ROOT / "mutants" / "run.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


@pytest.mark.parametrize("file, old, new, reason", gate.MUTANTS,
                         ids=[m[3] for m in gate.MUTANTS])
def test_anchor_occurs_once_and_the_mutant_parses(file, old, new, reason):
    text = (ROOT / file).read_text()
    assert text.count(old) == 1
    assert new != old
    ast.parse(gate.apply(text, old, new))
