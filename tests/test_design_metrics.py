"""tools/design_metrics.py on a small package written to a temporary folder,
with a perfbench/ folder next to its src/, as in the repository: every
column of the table, and the settable options, public methods, test-only
names and write-only fields printed under it; then the test-only names, the
settable options and the write-only fields of the package itself."""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "design_metrics.py"

MODULES = {
    "__init__.py": "",
    # 2 + 1 + 1 + 1 options; the lambda's two defaults and c, which has none, are not counted
    "opts.py": '''\
def positional(a, b=1, c=2):
    return a


def keyword_only(a, *, b=1, c):
    return lambda x=1, y=2: x


class Holder:
    def method(self, d=None):
        def inner(e=0):
            return e
        return inner
''',
    # two errstate blocks, one of them the second item of its with
    "guards.py": '''\
import numpy as np


def quiet(x):
    with np.errstate(all="ignore"):
        y = 1.0 / x
    with open(__file__) as fh, np.errstate(divide="ignore"):
        fh.read()
    with open(__file__) as fh:
        fh.read()
    return y
''',
    # five public names; orphan refers only to itself, traced only perfbench names
    "names.py": '''\
LIMIT = 3
_HIDDEN = 4


def used():
    return LIMIT + _HIDDEN


def orphan():
    return orphan


def traced():
    return None


class Model:
    pass
''',
    # a public method of each kind; lonely reads only itself, and perimeter
    # shares its name with a local and a dict key of caller but no attribute
    "methods.py": '''\
class Shape:
    def __init__(self, side):
        self.side = side

    def area(self):
        return self._scale() * self.side ** 2

    def lonely(self):
        return self.lonely

    @property
    def perimeter(self):
        return 4 * self.side

    @staticmethod
    def unit():
        return Shape(1.0)

    def _scale(self):
        return 1.0


class _Private:
    def hidden(self):
        return None
''',
    "caller.py": '''\
from . import methods, names
from .names import used


def main():
    shape = methods.Shape.unit()
    perimeter = {"perimeter": getattr(shape, "area")()}
    return used(), names.Model, perimeter
''',
}
BENCH = 'TRACED = ("traced", "positional", "keyword_only", "Holder", "quiet", "main")\n'


# 2 + 1 defaulted dataclass fields; Plain is not a dataclass and x has no default
RECORDS = '''\
import dataclasses
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Point:
    x: float
    y: float = 0.0
    tags: dict = field(default_factory=dict)


@dataclasses.dataclass
class Flag:
    on: bool = False


class Plain:
    level: int = 3
'''


# four dataclass fields: value is read by build and checked by the tests,
# while echo is only a keyword, a dict key and a string, and label is only
# assigned; _Hidden is private and Plain not a dataclass
READS = '''\
from dataclasses import dataclass


@dataclass
class Report:
    value: float
    echo: str
    checked: bool
    label: str


@dataclass
class _Hidden:
    secret: int


class Plain:
    level: int = 3


def build(r):
    out = Report(value=1.0, echo="x", checked=True, label="l")
    out.label = "m"
    return out.value, {"echo": r}, getattr(out, "echo")
'''
TEST_READS = '''\
import pytest


@pytest.mark.parametrize("echo", [1])
def test_report(r, echo):
    assert r.checked
'''


def run_tool(root, modules, tests=None):
    """(rows by module as {column: value}, the lines under the table as
    {label: names}) for a package of these modules under root/src/pkg, with
    the test modules given under root/tests."""
    package = root / "src" / "pkg"
    package.mkdir(parents=True)
    for name, text in modules.items():
        (package / name).write_text(text)
    (root / "perfbench").mkdir()
    (root / "perfbench" / "bench.py").write_text(BENCH)
    if tests:
        (root / "tests").mkdir()
        for name, text in tests.items():
            (root / "tests" / name).write_text(text)
    return tool_report(package)


def tool_report(package):
    """The table and the lines under it, as run_tool returns them, for the
    package folder given."""
    spec = importlib.util.spec_from_file_location("design_metrics", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert tool.main(["design_metrics.py", str(package)]) == 0
    rows, under = out.getvalue().split("\n\n")
    header, *rows = rows.splitlines()
    assert header.split() == ["module", *tool.COLUMNS]
    table = {r.split()[0]: dict(zip(tool.COLUMNS, map(int, r.split()[1:]))) for r in rows}
    return table, dict(line.split(": ", 1) for line in under.strip().splitlines())


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    return run_tool(tmp_path_factory.mktemp("repo"), MODULES)


def column(table, name):
    return {module: row[name] for module, row in table.items()}


def test_lines_are_newlines(report):
    table, _ = report
    expect = {name: text.count("\n") for name, text in MODULES.items()}
    assert column(table, "lines") == {**expect, "total": sum(expect.values())}


def test_options_count_keyword_only_defaults_and_not_lambdas(report):
    table, _ = report
    assert column(table, "options") == {
        "__init__.py": 0, "caller.py": 0, "guards.py": 0, "methods.py": 0, "names.py": 0, "opts.py": 5, "total": 5,
    }


def test_public_names_skip_underscores(report):
    # methods.py: Shape and its four public methods; opts.py: Holder.method too
    table, _ = report
    assert column(table, "public") == {
        "__init__.py": 0, "caller.py": 1, "guards.py": 1, "methods.py": 5, "names.py": 5, "opts.py": 4, "total": 16,
    }


def test_errstate_blocks(report):
    table, _ = report
    assert column(table, "errstate") == {
        "__init__.py": 0, "caller.py": 0, "guards.py": 2, "methods.py": 0, "names.py": 0, "opts.py": 0, "total": 2,
    }


def test_test_only_names_are_reached_from_nowhere_else(report):
    # LIMIT is read by used, used and Model by caller, the rest by perfbench's
    # strings; of the methods, unit and area are reached by caller, through
    # an attribute and a string constant
    table, under = report
    assert column(table, "test-only") == {
        "__init__.py": 0, "caller.py": 0, "guards.py": 0, "methods.py": 2, "names.py": 1, "opts.py": 1, "total": 4,
    }
    assert under["test-only names"] == "methods.Shape.lonely, methods.Shape.perimeter, names.orphan, opts.Holder.method"


def test_public_methods_are_named_under_the_table(report):
    # dunders, private methods and the methods of a private class are not counted
    _, under = report
    assert under["public methods"] == (
        "methods.Shape.area, methods.Shape.lonely, methods.Shape.perimeter, methods.Shape.unit, opts.Holder.method")


# the paper reports of ROADMAP item 8, the one file format, and the two
# constructors that take a general Theta from the user: nothing in the
# package or perfbench calls them, and each stays
KEPT_TEST_ONLY = {
    "bands.band_inequality_checks", "field.write_field_binary", "field.read_field_binary",
    "growth.lemma1_ratio_scan", "kfunc.k_lp_linf", "kfunc.k_lp_bmo", "spaces.embedding_gap_report",
    "growth.GrowthFunction.from_callable", "growth.GrowthFunction.from_table",
}


def test_the_package_has_no_test_only_names_but_the_kept_ones():
    _, under = tool_report(TOOL.parents[1] / "src" / "osgood")
    assert set(under["test-only names"].split(", ")) == KEPT_TEST_ONLY


# every parameter with a default in the package, and every defaulted field of
# a public dataclass: a new option is a deliberate edit of this set
SETTABLE_OPTIONS = {
    "bands.decompose.warn_nyquist", "bands.vishik_norm.beta", "biot.biot_savart.beta",
    "biot.modulus_envelope.velocity", "field.GridField.domain", "growth.GrowthFunction.params",
    "growth.GrowthFunction.constant.value", "growth.GrowthFunction.constant.p0", "growth.GrowthFunction.power.p0",
    "growth.GrowthFunction.power.shift", "growth.GrowthFunction.log_power.log_alphas",
    "growth.GrowthFunction.log_power.p0", "growth.GrowthFunction.log_power.shifted",
    "growth.GrowthFunction.from_callable.p0", "growth.GrowthFunction.from_table.p0", "growth.OsgoodSpec.epsilon_L",
    "growth.OsgoodSpec.orientation", "growth.osgood_from_growth.orientation", "growth.osgood_from_growth.lift",
    "spaces.yudovich_norm.p0", "spaces.sharp_yudovich_norm.p0",
}


def test_the_package_has_no_settable_options_but_the_pinned_ones():
    table, under = tool_report(TOOL.parents[1] / "src" / "osgood")
    names = under["settable options"].split(", ")
    assert set(names) == SETTABLE_OPTIONS
    assert len(names) == table["total"]["options"] == 21


def test_write_only_fields_are_read_by_no_attribute(report, tmp_path):
    # a field read in the package or only in the tests is not listed; a
    # keyword, a store, a dict key, a string or an argname does not read one
    _, under = report
    assert under["write-only fields"] == "none"
    _, under = run_tool(tmp_path, {"__init__.py": "", "reads.py": READS}, {"test_reads.py": TEST_READS})
    assert under["write-only fields"] == "reads.Report.echo, reads.Report.label"


def test_the_package_has_no_write_only_fields():
    _, under = tool_report(TOOL.parents[1] / "src" / "osgood")
    assert under["write-only fields"] == "none"


def test_options_count_defaulted_dataclass_fields(tmp_path):
    table, _ = run_tool(tmp_path, {"__init__.py": "", "records.py": RECORDS})
    assert column(table, "options") == {"__init__.py": 0, "records.py": 3, "total": 3}


def test_settable_options_are_named_under_the_table(report, tmp_path):
    # one name per counted option, a method's and a nested def's under their
    # enclosing names, a dataclass field's under its class
    table, under = report
    names = under["settable options"].split(", ")
    assert names == [
        "opts.positional.b", "opts.positional.c", "opts.keyword_only.b",
        "opts.Holder.method.d", "opts.Holder.method.inner.e",
    ]
    assert len(names) == table["total"]["options"]
    _, under = run_tool(tmp_path, {"__init__.py": "", "records.py": RECORDS})
    assert under["settable options"] == "records.Point.y, records.Point.tags, records.Flag.on"
