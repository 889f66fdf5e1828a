import doctest
from pathlib import Path

import weightbounds

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_every_exported_name_resolves_and_is_listed_once():
    names = weightbounds.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(weightbounds, name), name


def test_readme_library_example_runs():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_a_failing_given_test_fails_without_ending_the_session(pytester):
    # Under this project's pytest settings, where warnings are errors, a
    # failing @given test is reported as one failure and the next test runs.
    pytester.makepyprojecttoml((ROOT / "pyproject.toml").read_text())
    pytester.makepyfile(test_given="""
        from hypothesis import given, settings, strategies as st

        @settings(derandomize=True, database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 10

        def test_after():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_given.py")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
