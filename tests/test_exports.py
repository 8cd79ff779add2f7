"""The export surface is the same surface: every package that states its
exports as a table (``repro._exports``) still offers each name, and the
registry's ``name -> module:Class`` table matches the executor sources."""

import ast
import importlib
import pathlib
import sys

import pytest

from repro.runtimes import registry
from tests.test_import_budget import fresh

PACKAGES = [
    "repro", "repro.core", "repro.runtimes", "repro.trace", "repro.cluster",
    "repro.check", "repro.metg", "repro.suite", "repro.serve", "repro.sim",
    "repro.analysis",
]


@pytest.mark.parametrize("package", PACKAGES)
class TestExportTable:
    def test_every_name_is_its_submodules_object(self, package):
        pkg = importlib.import_module(package)
        # Adversarial order for a name shared with a submodule
        # (repro.metg.metg): the submodule is imported first.
        for submodule in pkg._EXPORTS:
            importlib.import_module(f"{package}.{submodule}")
        named = [n for names in pkg._EXPORTS.values() for n in names]
        assert len(named) == len(set(named))
        assert sorted(named) == sorted(set(pkg.__all__) - {"__version__"})
        for submodule, names in pkg._EXPORTS.items():
            defining = sys.modules[f"{package}.{submodule}"]
            for name in names:
                assert getattr(pkg, name) is getattr(defining, name)
                assert pkg.__dict__[name] is getattr(defining, name)  # cached

    def test_dir_and_star_import(self, package):
        pkg = importlib.import_module(package)
        assert set(dir(pkg)) >= set(pkg.__all__)
        bound: dict = {}
        exec(f"from {package} import *", bound)
        del bound["__builtins__"]
        assert sorted(bound) == sorted(pkg.__all__)

    def test_unknown_attribute(self, package):
        pkg = importlib.import_module(package)
        before = set(sys.modules)
        with pytest.raises(AttributeError) as err:
            pkg.no_such_name
        assert package in str(err.value) and "no_such_name" in str(err.value)
        assert set(sys.modules) == before


def test_importing_a_package_runs_none_of_its_submodules():
    out = fresh(f"""
import importlib, json, sys
lazy = {[p for p in PACKAGES if p != "repro.metg"]!r}
for package in lazy:
    importlib.import_module(package)
print(json.dumps(sorted(set(m for m in sys.modules if m.startswith("repro"))
                        - set(lazy) - {{"repro._exports"}})))
""")
    assert out == []


def test_threads_racing_for_one_name_get_one_class():
    out = fresh("""
import json, sys, threading
import repro.runtimes
assert "repro.runtimes.dataflow" not in sys.modules
barrier, got = threading.Barrier(8), []
def resolve():
    barrier.wait(timeout=10)
    got.append(repro.runtimes.DataflowExecutor)
threads = [threading.Thread(target=resolve) for _ in range(8)]
for t in threads: t.start()
for t in threads: t.join(timeout=30)
from repro.runtimes.dataflow import DataflowExecutor
print(json.dumps([len(got), all(g is DataflowExecutor for g in got)]))
""")
    assert out == [8, True]


def _literal_name(cls: ast.ClassDef):
    """The string a class body assigns to ``name``, or None."""
    for stmt in cls.body:
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
        if ([getattr(t, "id", None) for t in targets] == ["name"]
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)):
            return stmt.value.value
    return None


class TestRegistryTable:
    def test_table_is_exactly_the_executors_in_the_sources(self):
        # Nothing imports an executor for you any more, so one can be
        # neither forgotten nor misfiled: the sources are the other copy.
        found = set()
        for path in pathlib.Path(registry.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef) and _literal_name(node):
                    found.add((_literal_name(node), path.stem, node.name))
        table = {
            (name, *target.partition(":")[::2])
            for name, target in registry._RUNTIMES.items()
        }
        assert found == table
        assert len(table) == 14

    def test_names_are_read_off_the_table_without_importing(self):
        out = fresh("""
import json, sys
from repro.runtimes.registry import available_runtimes, make_executor
names = available_runtimes()
try:
    make_executor("nope")
except ValueError as e:
    message = str(e)
print(json.dumps({"names": names, "message": message, "executors": sorted(
    m for m in sys.modules if m.startswith("repro.runtimes.")
    and not m.rpartition(".")[2].startswith("_"))}))
""")
        assert len(out["names"]) == 14
        assert all(name in out["message"] for name in out["names"])
        assert out["executors"] == ["repro.runtimes.registry",
                                    "repro.runtimes.serial"]

    def test_a_misfiled_entry_is_refused(self, monkeypatch):
        monkeypatch.setitem(registry._RUNTIMES, "threads",
                            "serial:SerialExecutor")
        with pytest.raises(RuntimeError, match="calls itself 'serial'"):
            registry.make_executor("threads")

    def test_list_runtimes_prints_every_row_with_shim_lines(self, capsys):
        from repro.cli import main

        assert main(["--list-runtimes"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert [r[0] for r in rows] == registry.available_runtimes()
        assert len(rows) == 14 and all(int(r[3]) > 20 for r in rows)
