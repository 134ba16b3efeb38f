"""The reachability gate's static half: the ``ast`` walk, the allowlist parser
and the unreached / unlisted / stale verdicts (``tools/reachability.py``).

Running the entry points under the profile hook is what ``make reach`` does;
these tests feed :func:`check` hand-made ``entered`` sets instead.
"""

import importlib.util
import pathlib
import sys
import textwrap

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[2] / "tools" / "reachability.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("reachability_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


reach = _load_tool()

SOURCE = '''\
import abc
from abc import abstractmethod


def top():
    def inner():
        return 1

    return inner


class Shape(abc.ABC):
    @abc.abstractmethod
    def area(self):
        """Declared only."""

    @property
    def name(self):
        return "shape"

    class Meta:
        def tag(self):
            return "m"


async def fetch():
    return None


class Plain:
    @abstractmethod
    def declared(self):
        """Declared only, with the decorator imported by name."""
'''


@pytest.fixture
def package(tmp_path, monkeypatch):
    """A one-module package standing in for ``src/repro``."""
    monkeypatch.setattr(reach, "PACKAGE", tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "mod.py").write_text(SOURCE, encoding="utf-8")
    return tmp_path


def functions_by_name(package):
    return {f.qualname: f for f in reach.functions_in(package / "sub" / "mod.py")}


def allowlist(tmp_path, text):
    path = tmp_path / "allow.txt"
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


class TestFunctionsIn:
    def test_qualnames_cover_methods_nested_classes_and_locals(self, package):
        assert set(functions_by_name(package)) == {
            "top",
            "top.<locals>.inner",
            "Shape.name",
            "Shape.Meta.tag",
            "fetch",
        }

    def test_abstract_methods_are_left_out(self, package):
        assert "Shape.area" not in functions_by_name(package)

    def test_abstract_method_imported_by_name_is_left_out(self, package):
        assert "Plain.declared" not in functions_by_name(package)

    def test_paths_are_relative_to_the_package(self, package):
        assert {f.path for f in functions_by_name(package).values()} == {"sub/mod.py"}

    def test_decorated_function_starts_at_its_decorator(self, package):
        name = functions_by_name(package)["Shape.name"]
        assert name.first_line == SOURCE.splitlines().index("    @property") + 1
        assert name.lines == 3

    def test_nested_function_records_its_parent(self, package):
        functions = functions_by_name(package)
        assert functions["top.<locals>.inner"].parent == functions["top"].key
        assert functions["top"].parent is None
        assert functions["Shape.Meta.tag"].parent is None


class TestParseAllowlist:
    def test_valid_lines_map_to_their_line_numbers(self, tmp_path):
        path = allowlist(
            tmp_path,
            """\
            # a comment

            sub/mod.py:top  # error path: only a broken input reaches it
            sub/mod.py:Shape.*  # test observation point
            """,
        )
        assert reach.parse_allowlist(path) == (
            {"sub/mod.py:top": 3, "sub/mod.py:Shape.*": 4},
            [],
        )

    def test_line_without_a_reason_is_malformed(self, tmp_path):
        entries, errors = reach.parse_allowlist(allowlist(tmp_path, "sub/mod.py:top\n"))
        assert entries == {}
        assert len(errors) == 1 and "not 'path:Qualname  # reason'" in errors[0]

    def test_reason_must_start_with_a_known_reason(self, tmp_path):
        entries, errors = reach.parse_allowlist(
            allowlist(tmp_path, "sub/mod.py:top  # might be handy one day\n")
        )
        assert entries == {"sub/mod.py:top": 1}
        assert len(errors) == 1 and "reason must start with one of" in errors[0]

    def test_duplicate_line_is_an_error(self, tmp_path):
        _, errors = reach.parse_allowlist(
            allowlist(tmp_path, "a.py:f  # error path\na.py:f  # error path\n")
        )
        assert errors == ["allow.txt:2: a.py:f is listed twice"]


class TestCheck:
    def test_unentered_function_is_unlisted(self, package, tmp_path):
        functions = list(functions_by_name(package).values())
        entered = {f.key for f in functions if f.qualname != "fetch"}
        unreached, unlisted, stale = reach.check(functions, entered, allowlist(tmp_path, ""))
        assert [f.qualname for f in unreached] == ["fetch"]
        assert len(unlisted) == 1 and "sub/mod.py:fetch" in unlisted[0]
        assert stale == []

    def test_exact_line_covers_its_function(self, package, tmp_path):
        functions = list(functions_by_name(package).values())
        entered = {f.key for f in functions if f.qualname != "fetch"}
        path = allowlist(tmp_path, "sub/mod.py:fetch  # live mode only\n")
        _, unlisted, stale = reach.check(functions, entered, path)
        assert unlisted == [] and stale == []

    def test_class_wildcard_covers_one_class_only(self, package, tmp_path):
        functions = list(functions_by_name(package).values())
        entered = {f.key for f in functions if not f.qualname.startswith("Shape.")}
        path = allowlist(tmp_path, "sub/mod.py:Shape.*  # test observation point\n")
        _, unlisted, stale = reach.check(functions, entered, path)
        # Shape.Meta.tag belongs to the nested class Shape.Meta, not to Shape.
        assert [line.split()[4] for line in unlisted] == ["sub/mod.py:Shape.Meta.tag"]
        assert stale == []

    def test_line_for_an_entered_function_is_stale(self, package, tmp_path):
        functions = list(functions_by_name(package).values())
        entered = {f.key for f in functions}
        path = allowlist(tmp_path, "sub/mod.py:top  # error path\n")
        _, unlisted, stale = reach.check(functions, entered, path)
        assert unlisted == []
        assert len(stale) == 1 and stale[0].startswith("stale allowlist line 1: sub/mod.py:top")

    def test_line_for_a_missing_function_is_stale(self, package, tmp_path):
        functions = list(functions_by_name(package).values())
        entered = {f.key for f in functions}
        path = allowlist(tmp_path, "sub/mod.py:deleted  # error path\n")
        assert len(reach.check(functions, entered, path)[2]) == 1

    def test_nested_function_is_judged_with_its_enclosing_one(self, package, tmp_path):
        functions = functions_by_name(package)
        everything_else = {f.key for name, f in functions.items() if not name.startswith("top")}
        path = allowlist(tmp_path, "sub/mod.py:top  # error path\n")
        unreached, unlisted, _ = reach.check(list(functions.values()), everything_else, path)
        assert [f.qualname for f in unreached] == ["top"] and unlisted == []

        entered = everything_else | {functions["top"].key}
        unreached, _, _ = reach.check(list(functions.values()), entered, allowlist(tmp_path, ""))
        assert [f.qualname for f in unreached] == ["top.<locals>.inner"]


class TestMain:
    """The exit code and summary, over a hand-made ``entered`` set."""

    @pytest.fixture
    def run(self, package, tmp_path, monkeypatch, capsys):
        def run(entered_names, allowlist_text, *flags):
            functions = reach.all_functions()
            entered = {f.key for f in functions if f.qualname in entered_names}
            monkeypatch.setattr(reach, "trace_entry_points", lambda: entered)
            path = allowlist(tmp_path, allowlist_text)
            code = reach.main(["--allowlist", str(path), *flags])
            return code, capsys.readouterr().out

        return run

    def test_exits_0_when_every_unreached_function_is_listed(self, run):
        code, out = run({"top", "top.<locals>.inner", "Shape.name"}, """\
            sub/mod.py:Shape.Meta.*  # test observation point
            sub/mod.py:fetch  # live mode only
            """)
        assert code == 0
        assert "5 functions" in out and "2 unreached" in out and "2 of them allowlisted" in out

    def test_exits_1_on_an_unlisted_function(self, run):
        code, out = run({"top", "top.<locals>.inner", "Shape.name", "fetch"}, "")
        assert code == 1
        assert "unreached and not allowlisted: sub/mod.py:Shape.Meta.tag" in out

    def test_exits_1_on_a_stale_line_and_reports_by_file(self, run):
        everything = {"top", "top.<locals>.inner", "Shape.name", "Shape.Meta.tag", "fetch"}
        code, out = run(everything, "sub/mod.py:fetch  # live mode only\n")
        assert code == 1
        assert "stale allowlist line 1: sub/mod.py:fetch" in out
        code, out = run(everything - {"fetch"}, "sub/mod.py:fetch  # live mode only\n", "--report")
        assert code == 0
        assert "sub/mod.py: 1 functions, 2 lines" in out and "    fetch (2)" in out


class TestCommittedAllowlist:
    def test_every_line_is_well_formed_and_names_existing_code(self):
        entries, errors = reach.parse_allowlist(reach.ALLOWLIST)
        assert errors == []
        functions = reach.all_functions()
        names = {f"{f.path}:{f.qualname}" for f in functions}
        classes = {f"{f.path}:{f.qualname.rpartition('.')[0]}.*" for f in functions}
        assert sorted(set(entries) - names - classes) == []
