import doctest
from pathlib import Path

import weightbounds

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves_and_is_listed_once():
    names = weightbounds.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(weightbounds, name), name


def test_readme_library_example_runs():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
