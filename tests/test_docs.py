"""The documented entry points run: the README quick start, the README
command-line examples and every demo.  The package sources import nothing
they do not use, and every private helper they define is used."""

from __future__ import annotations

import ast
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import henonshift
from henonshift import cli
from henonshift.cli import main
from henonshift.markov import golden_mean_graph, graph_to_dict

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.S)
    assert block is not None, "README has no python block"
    exec(compile(block.group(1), "README.md", "exec"), {})


def _readme_commands():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return [
        line
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.splitlines()
        if line.startswith("henonshift ")
    ]


def test_readme_has_command_examples():
    assert len(_readme_commands()) >= 6


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_runs(line, tmp_path, monkeypatch, capsys):
    (tmp_path / "golden.json").write_text(json.dumps(graph_to_dict(golden_mean_graph())))
    monkeypatch.chdir(tmp_path)
    code = main(shlex.split(line)[1:])
    assert code == 0, capsys.readouterr().err


def test_readme_verb_listing_matches_the_cli_table():
    # the README lists each group's verbs as `henonshift <group> {v1,v2,...}`
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.findall(r"^henonshift (\w+) +\{([^}]*)\}", readme, re.M)
    table: dict[str, list[str]] = {}
    for command in cli._verbs():
        group, verb = command.split()
        table.setdefault(group, []).append(verb)
    assert [(g, v.split(",")) for g, v in listed] == list(table.items())
    assert [g for g, _ in listed] == list(cli._GROUPS)


@pytest.mark.parametrize(
    "demo",
    [
        "01_markov_shift_mme.py",
        "02_periodic_orbit_census.py",
        "03_henon_conditions.py",
        "04_word_dimension_bounds.py",
        "05_mixing_clt_dimensions.py",
        "06_cli_pipeline.py",
    ],
)
def test_demo_runs(demo):
    # the demo runs against the same source tree this test imported
    src = str(Path(henonshift.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert r.returncode == 0, r.stderr


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_package_sources_have_no_unused_imports():
    # the package, its tests and the demos; __init__.py imports in order to
    # re-export
    sources = [
        path for folder in ("src/henonshift", "tests", "demos")
        for path in sorted((ROOT / folder).glob("*.py"))
    ]
    unused = [u for path in sources if path.name != "__init__.py" for u in _unused_imports(path)]
    assert sources and not unused, unused


def _name_uses(tree: ast.AST) -> Counter:
    uses: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            uses.update(alias.name for alias in node.names)
    return uses


def test_private_helpers_are_used():
    # a module-level _function or _Class must be referenced somewhere in the
    # package outside its own definition, or it is dead code
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "henonshift").glob("*.py"))}
    total = sum((_name_uses(tree) for tree in trees.values()), Counter())
    dead = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and total[node.name] <= _name_uses(node)[node.name]
    ]
    assert trees and not dead, dead


def _public_definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """The module-level functions, classes and assigned names without a
    leading underscore, each with the statement that defines it."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        out += [(name, node) for name in names if not name.startswith("_")]
    return out


def test_public_names_have_callers():
    # every public name a module defines (everything in __all__ among
    # them) must be referenced in the package outside its own definition,
    # in a demo or in the benchmark, or it is a name only the tests use; a
    # type that a public function returns or raises is referenced where the
    # function builds or raises it.  __init__.py only re-exports.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "henonshift").glob("*.py"))
             if path.name != "__init__.py"}
    others = [path for folder in ("demos", "perfbench") for path in sorted((ROOT / folder).glob("*.py"))]
    total = sum((_name_uses(tree) for tree in trees.values()), Counter())
    total += sum((_name_uses(ast.parse(p.read_text(encoding="utf-8"))) for p in others), Counter())
    unused = []
    for name, tree in trees.items():
        unused += [
            f"{name}:{node.lineno} {public}"
            for public, node in _public_definitions(tree)
            if total[public] <= _name_uses(node)[public]
        ]
    assert trees and not unused, unused


def test_every_export_resolves():
    # each __all__ entry is a name of its module, and each package-level
    # re-export is in the __all__ of the module it comes from
    for path in sorted((ROOT / "src" / "henonshift").glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"henonshift.{path.stem}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (path.name, missing)
    tree = ast.parse((ROOT / "src" / "henonshift" / "__init__.py").read_text(encoding="utf-8"))
    reexports = [(node.module, a.name) for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.module for a in node.names]
    assert reexports
    stray = [f"{m}.{n}" for m, n in reexports
             if n not in importlib.import_module(f"henonshift.{m}").__all__]
    assert not stray, stray


def test_public_parameters_have_callers():
    # every defaulted parameter of a public library function must be passed
    # somewhere in the library or the benchmark (by keyword, by enough
    # positional arguments to reach it, or through a call with * or **), or
    # it is a setting nothing but the tests and demos uses
    calls: dict[str, list[ast.Call]] = {}
    for folder in ("src", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    calls.setdefault(name, []).append(node)

    def passed(call: ast.Call, arg: str, index: int | None) -> bool:
        return (
            any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg in (None, arg) for k in call.keywords)
            or (index is not None and len(call.args) > index)
        )

    unused = []
    for module in ("markov", "words", "henon", "orbits", "stats"):
        path = ROOT / "src" / "henonshift" / f"{module}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        public = set(getattr(henonshift, module).__all__)
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name not in public:
                continue
            a = fn.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            defaulted = [(p.arg, i) for i, p in enumerate(positional) if i >= first]
            defaulted += [
                (p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None
            ]
            unused += [
                f"{module}.{fn.name}({arg})"
                for arg, i in defaulted
                if not any(passed(c, arg, i) for c in calls.get(fn.name, []))
            ]
    assert not unused, ", ".join(unused)
