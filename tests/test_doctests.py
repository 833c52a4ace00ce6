import doctest
from pathlib import Path

import pytest

import weylipse.cartan
import weylipse.exact
import weylipse.orbits
import weylipse.ordering
import weylipse.quadrics
import weylipse.weyl


@pytest.mark.parametrize(
    "module",
    [
        weylipse.cartan,
        weylipse.exact,
        weylipse.orbits,
        weylipse.ordering,
        weylipse.quadrics,
        weylipse.weyl,
    ],
    ids=lambda m: m.__name__,
)
def test_doctests(module):
    failures, _ = doctest.testmod(module, verbose=False)
    assert failures == 0


def test_readme_examples():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    failures, tried = doctest.testfile(
        str(readme), module_relative=False, optionflags=doctest.ELLIPSIS
    )
    assert tried > 0 and failures == 0
