"""The package names the benchmark reaches for still exist and take its calls.

``perfbench/tracing.py`` wraps module attributes listed in ``_PATCHES`` and
skips any it cannot find, and ``perfbench/workloads.py`` calls into the
package through module aliases. A deletion in ``src/`` that drops one of
those names would quietly lose a traced span or break a workload's set-up,
and a changed signature would break the replay probe or a workload, so both
files are read here (with ``ast``, nothing is imported from them).
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def parse(name):
    return ast.parse((PERFBENCH / name).read_text())


def package_aliases(tree) -> dict:
    """Local name -> package module, from ``from frfselect import x [as y]``."""
    return {
        alias.asname or alias.name: importlib.import_module(f"frfselect.{alias.name}")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "frfselect"
        for alias in node.names
    }


def test_every_traced_attribute_resolves():
    tree = parse("tracing.py")
    modules = package_aliases(tree)
    (patches,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["_PATCHES"]
    ]
    pairs = [(entry.elts[0].id, entry.elts[1].value) for entry in patches.elts]
    assert len(pairs) > 20
    missing = [f"{m}.{a}" for m, a in pairs if not hasattr(modules[m], a)]
    assert missing == []


def test_every_workload_attribute_resolves():
    tree = parse("workloads.py")
    modules = package_aliases(tree)
    assert set(modules) == {"fcli", "fdatagen", "fexperiment", "fsolver"}
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert ("fdatagen", "write_spectrum") in used
    missing = [f"{m}.{a}" for m, a in sorted(used) if not hasattr(modules[m], a)]
    assert missing == []


@pytest.mark.parametrize("name", ["tracing.py", "workloads.py"])
def test_every_package_call_binds_to_its_signature(name):
    tree = parse(name)
    modules = package_aliases(tree)
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in modules
    ]
    assert len(calls) >= 4
    unbound = []
    for call in calls:
        # no *args or **kwargs, so placeholders stand for every argument
        assert not any(isinstance(a, ast.Starred) for a in call.args)
        assert all(kw.arg is not None for kw in call.keywords)
        target = getattr(modules[call.func.value.id], call.func.attr)
        try:
            inspect.signature(target).bind(
                *[None] * len(call.args), **{kw.arg: None for kw in call.keywords}
            )
        except TypeError as exc:
            unbound.append(f"line {call.lineno}: {ast.unparse(call.func)}: {exc}")
    assert unbound == []
