"""Package surface: the exported names, and the modules each entry point loads."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nbhood

SRC = str(Path(nbhood.__file__).parents[1])

# the modules only some subcommands need, and the stdlib ones they bring;
# core's values are plain classes, so dataclasses (and its inspect) wait too
DEFERRED = (
    "nbhood.counting", "nbhood.extremal", "nbhood.verify", "fractions", "json",
    "dataclasses", "inspect",
)


def _fresh(code: str) -> str:
    """stdout of ``code`` run by a fresh interpreter without site packages.

    -S keeps modules that site hooks import out of the picture; the child
    imports the same nbhood as this process.
    """
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    return proc.stdout


def _loaded_after(argv: list[str] | None) -> set[str]:
    """Modules in a fresh process after it runs ``main(argv)``.

    With ``argv`` None the child only builds the parser, as a cold start does.
    """
    call = "nbhood.cli.build_parser()" if argv is None else f"nbhood.cli.main({argv!r})"
    out = _fresh(
        "import contextlib, io, sys\n"
        "import nbhood.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {call}\n"
        "print(*sys.modules)\n"
    )
    return set(out.split())


@pytest.mark.parametrize(
    "argv",
    [
        None,
        ["enum", "--word", "abba", "--dist", "2", "--sigma", "2", "--count-only"],
        ["enum", "--word", "aba", "--dist", "1", "--sigma", "2", "--kind", "condensed"],
        ["dist", "kitten", "sitting", "--alignment", "--leftmost"],
    ],
    ids=["parser", "enum-count-only", "enum-listing", "dist"],
)
def test_the_parser_and_the_hot_commands_load_no_deferred_module(argv):
    loaded = _loaded_after(argv)
    assert {"nbhood.cli", "nbhood.core", "nbhood.distance", "nbhood.neighborhood"} <= loaded
    assert loaded.isdisjoint(DEFERRED), sorted(loaded.intersection(DEFERRED))


def test_table1_loads_the_bound_arithmetic_but_not_the_scan_or_the_sweeps():
    loaded = _loaded_after(["table1"])
    assert "nbhood.counting" in loaded
    assert loaded.isdisjoint({"nbhood.extremal", "nbhood.verify"})


def test_importing_the_package_loads_no_submodule_until_one_is_read():
    out = _fresh(
        "import sys, nbhood\n"
        "print(*sys.modules)\n"
        "print(nbhood.extremal.scan_extremal.__module__)\n"
    )
    loaded, read = out.splitlines()
    assert not {m for m in loaded.split() if m.startswith("nbhood.")}
    assert read == "nbhood.extremal"


def test_each_export_is_the_object_of_its_home_module():
    exported = [name for name in nbhood.__all__ if name != "__version__"]
    assert len(exported) == len(set(exported)) == 49
    assert nbhood.count is nbhood.neighborhood.count
    assert nbhood.run_verification is nbhood.verify.run_verification
    for name in exported:
        home = importlib.import_module(f"nbhood.{nbhood._HOME[name]}")
        value = getattr(nbhood, name)
        assert value is getattr(home, name), name
        # a class or function is exported from where it is defined
        assert getattr(value, "__module__", home.__name__) == home.__name__, name


def test_dir_lists_every_export_before_its_first_access():
    out = _fresh("import nbhood\nprint(set(nbhood.__all__) <= set(dir(nbhood)))\n")
    assert out == "True\n"


def test_star_import_binds_every_export_on_first_access():
    # in a fresh process, so each name goes through the first-access path
    out = _fresh(
        "import nbhood\n"
        "from nbhood import *\n"
        "from nbhood import neighborhood, verify\n"
        "names = nbhood.__all__\n"
        "print(all(globals()[n] is getattr(nbhood, n) for n in names),\n"
        "      count is neighborhood.count, run_verification is verify.run_verification)\n"
    )
    assert out == "True True True\n"


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        nbhood.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from nbhood import no_such_name", {})
