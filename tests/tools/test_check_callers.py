"""``tools/check_callers.py``: what counts as a caller, on small
synthetic trees, and the repository's own tree passing it."""

import importlib.util
import os
import sys
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))
_SPEC = importlib.util.spec_from_file_location(
    "check_callers", os.path.join(ROOT, "tools", "check_callers.py")
)
check_callers = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = check_callers  # for its dataclass
_SPEC.loader.exec_module(check_callers)


def write(root, relative, text):
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text), encoding="utf-8")


def uncalled(root, allowed=None):
    found, _ = check_callers.check(str(root), allowed or {})
    return {definition.key for definition in found}


@pytest.fixture
def tree(tmp_path):
    """``repro.mod`` with a called function, an uncalled one, one that
    only calls itself, and a class whose method a tool reaches."""
    write(tmp_path, "src/repro/__init__.py", "")
    write(tmp_path, "src/repro/mod.py", """
        def used():
            return 1


        def unused():
            return 2


        def countdown(n):
            return countdown(n - 1) if n else 0


        class Hooked:
            def hook(self):
                return 3
    """)
    write(tmp_path, "tools/run.py", """
        from repro.mod import Hooked, used

        used()
        Hooked()
    """)
    return tmp_path


def test_an_unreferenced_definition_is_listed(tree):
    assert uncalled(tree) == {
        "repro.mod:unused", "repro.mod:countdown", "repro.mod:Hooked.hook",
    }


def test_a_reference_from_tests_alone_does_not_count(tree):
    write(tree, "tests/test_mod.py", """
        from repro.mod import unused

        def test_unused():
            assert unused() == 2
    """)
    assert "repro.mod:unused" in uncalled(tree)


def test_an_init_reexport_does_not_count(tree):
    write(tree, "src/repro/__init__.py", """
        from repro.mod import unused

        __all__ = ["unused"]
    """)
    assert "repro.mod:unused" in uncalled(tree)


def test_a_getattr_string_counts(tree):
    write(tree, "examples/hook.py", """
        from repro.mod import Hooked

        print(getattr(Hooked(), "hook")())
    """)
    assert "repro.mod:Hooked.hook" not in uncalled(tree)


def test_a_string_annotation_counts(tree):
    write(tree, "src/repro/user.py", """
        def take(value: "list[unused]") -> None:
            return None


        take([])
    """)
    assert "repro.mod:unused" not in uncalled(tree)


def test_a_member_called_only_by_bare_name_is_listed(tree):
    """A bare name never reaches a class member: the builtin
    ``iter(...)`` does not call ``Walker.iter``; an attribute does."""
    write(tree, "src/repro/walk.py", """
        class Walker:
            def iter(self):
                return iter([self])


        print(Walker())
    """)
    write(tree, "tools/walk.py", """
        print(list(iter([1])))
    """)
    assert "repro.walk:Walker.iter" in uncalled(tree)
    write(tree, "examples/walk.py", """
        from repro.walk import Walker

        print(list(Walker().iter()))
    """)
    assert "repro.walk:Walker.iter" not in uncalled(tree)


def test_an_allow_listed_name_passes(tree):
    allowed = {"repro.mod:unused": "reached by name"}
    assert "repro.mod:unused" not in uncalled(tree, allowed)
    _, stale = check_callers.check(str(tree), {"repro.mod:gone": "x"})
    assert stale == ["repro.mod:gone"]


def test_exit_status_names_each_offender(tree, capsys):
    assert check_callers.main([str(tree)]) == 1
    out = capsys.readouterr().out
    assert "src/repro/mod.py:6 repro.mod:unused" in out.replace(os.sep, "/")


def test_the_repository_has_no_uncalled_definition():
    assert check_callers.main([ROOT]) == 0
    assert len(check_callers.ALLOWED) <= 15
