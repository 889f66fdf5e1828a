import dataclasses
import doctest
import importlib
import pkgutil
from pathlib import Path

import weightbounds
from weightbounds.bounds import BoundVerdict
from weightbounds.codes import CodeParams, LinearCode, WeightSpectrum
from weightbounds.exclusion import AuditViolation, ExclusionReport
from weightbounds.gf import GF
from weightbounds.selfcheck import CheckResult
from weightbounds.tables import CellComparison, RowComparison, TableRow

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_every_exported_name_resolves_and_is_listed_once():
    names = weightbounds.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(weightbounds, name), name


def test_result_records_are_named_tuples_and_only_checked_records_dataclasses():
    # A record that checks or derives its fields when built is a frozen
    # dataclass; every other result record is a NamedTuple.
    for record in (BoundVerdict, ExclusionReport, AuditViolation, WeightSpectrum,
                   CheckResult, TableRow, CellComparison, RowComparison):
        assert issubclass(record, tuple) and record._fields, record
    assert AuditViolation("griesmer", 7, 1) == ("griesmer", 7, 1)
    assert ExclusionReport._fields == ("params", "chen_xie", "singleton", "griesmer", "clamped")
    assert isinstance(ExclusionReport.notes, property)
    modules = [importlib.import_module(m.name) for m in
               pkgutil.iter_modules(weightbounds.__path__, "weightbounds.")
               if m.name != "weightbounds.__main__"]  # importing it runs the CLI
    classes = {obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type)}
    assert set(filter(dataclasses.is_dataclass, classes)) == {CodeParams, LinearCode, GF}


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
