"""The mutant table stays applicable: a refactor that moves a mutant's code
has to update the table. Running the mutants is tests/mutants.py's job."""

import pytest

from mutants import MUTANTS, SRC


def test_mutant_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_text_occurs_exactly_once_in_its_file(mutant):
    assert mutant.text != mutant.replacement
    assert (SRC / mutant.file).read_text().count(mutant.text) == 1
