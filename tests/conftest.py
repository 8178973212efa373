"""The hypothesis profile of the mutation gate: ``mutants/run.py`` runs
pytest with ``--hypothesis-profile mutants``, which keeps every phase but
shrinking, so a property test that fails under a mutant fails on the
first example it finds instead of spending most of the gate's time
minimizing that example.  The tests' own ``@settings`` (examples,
derandomization, no database) still apply; without the flag nothing
changes."""
from hypothesis import Phase, settings

settings.register_profile(
    "mutants", phases=[p for p in Phase if p is not Phase.shrink])

# this file has no doctests, and collecting it as a module would import
# it under the name "conftest", which perfbench/conftest.py holds
collect_ignore = ["conftest.py"]
