import pytest

from mutants import MUTANTS, apply, guard


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_fails_its_guard(mutant, monkeypatch):
    run = guard(mutant.guard)
    apply(mutant, monkeypatch)
    with pytest.raises(AssertionError):
        run()


@pytest.mark.parametrize("name", sorted({m.guard for m in MUTANTS}))
def test_guard_passes_unmutated(name):
    guard(name)()
