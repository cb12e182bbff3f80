"""The package surface: every top-level definition in src/pnpf is reached
from the command line's entry point, pnpf.cli.main, or is listed in KEPT
with the reason it stays.  A definition that only tests call belongs in
tests/oracles.py, next to the code it checks."""

import ast
import re
from pathlib import Path

import pnpf

PACKAGE = Path(pnpf.__file__).parent

# module.name -> why it stays although no command reaches it
KEPT = {
    "dynamics.rhs_primitive": "perfbench/ calls it (checks.py, child.py)",
    "dynamics.rhs_perturbation": "perfbench/ calls it (checks.py, child.py)",
    "dynamics.convert_back":
        "perfbench/workloads.py gives the decay workload's state in primitive form with it",
    "dynamics.stability_bound": "perfbench/workloads.py reports dt over the bound",
    "snapshot.read_checkpoint": "perfbench/checks.py reads a run's final checkpoint back",
    "snapshot.read_snapshot":
        "the reader of the snapshot format that write_snapshot writes; read_checkpoint "
        "calls it",
}

ROOT = ("cli", "main")
PERFBENCH = Path(__file__).parents[1] / "perfbench"


class _Module:
    """The top-level definitions of one module, what its imports bind, and
    its other top-level statements (which run on import)."""

    def __init__(self, tree: ast.Module):
        self.defs, self.names, self.modules, self.body = {}, {}, {}, []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.defs[node.name] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module is None:  # from . import mod
                        self.modules[bound] = alias.name
                    else:
                        self.names[bound] = (node.module, alias.name)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                self.body.append(node)


def _package() -> dict:
    return {p.stem: _Module(ast.parse(p.read_text())) for p in PACKAGE.glob("*.py")}


def _resolve(mods: dict, mod: str, name: str):
    """The (module, name) of the definition that name means in mod, through
    re-exports, or None for a local or a name from outside the package."""
    while name not in mods[mod].defs:
        if name not in mods[mod].names:
            return None
        mod, name = mods[mod].names[name]
    return mod, name


def _references(mods: dict, mod: str, node: ast.AST):
    """The package definitions that node names: plain names bound in mod,
    and attributes of a package module bound in mod (decay.lyapunov)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            target = _resolve(mods, mod, sub.id)
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
              and sub.value.id in mods[mod].modules):
            target = _resolve(mods, mods[mod].modules[sub.value.id], sub.attr)
        else:
            continue
        if target is not None:
            yield target


def reached(mods: dict) -> set:
    """Every (module, name) that pnpf.cli.main or a module's import-time
    statements reach, a reached class with all of its methods."""
    todo = [ROOT]
    for mod, m in mods.items():
        for node in m.body:
            todo.extend(_references(mods, mod, node))
    seen = set()
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        mod, name = key
        todo.extend(_references(mods, mod, mods[mod].defs[name]))
    return seen


def unreached(mods: dict) -> set:
    live = reached(mods)
    return {f"{mod}.{name}" for mod, m in mods.items() for name in m.defs
            if (mod, name) not in live}


def test_every_definition_is_reached_or_kept():
    assert sorted(unreached(_package()) - set(KEPT)) == []


def test_kept_names_exist_and_stay_unreached():
    # a kept name that a command starts to reach, or that is gone, leaves
    # the list
    mods = _package()
    for key in KEPT:
        mod, name = key.split(".")
        assert name in mods[mod].defs, key
    assert set(KEPT) <= unreached(mods)


def test_kept_reasons_cite_files_that_name_the_definition():
    # a reason that cites a perfbench/ file stays true only while that
    # file's source names the kept definition
    cited = 0
    for key, reason in KEPT.items():
        if "perfbench/" not in reason:
            continue
        name = key.split(".")[1]
        files = re.findall(r"\b(\w+\.py)\b", reason)
        assert files, key
        for file in files:
            source = (PERFBENCH / file).read_text()
            assert re.search(rf"\b{name}\b", source), (key, file)
            cited += 1
    assert cited


def test_walk_follows_imports_and_module_attributes():
    # cli.main reaches audit_run through `from .thermo_audit import ...`,
    # decay.lyapunov through thermo_audit's `from . import decay` and the
    # methods of a reached class
    live = reached(_package())
    assert {("thermo_audit", "audit_run"), ("decay", "lyapunov"),
            ("fields", "AuditSink"), ("grid", "GridSpec")} <= live
    assert ("dynamics", "rhs_primitive") not in live
