from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

import emlang

ROOT = Path(__file__).resolve().parent.parent


def test_all_lists_exactly_the_public_imports():
    """No stale, missing or repeated export in ``emlang.__all__``."""
    assert len(set(emlang.__all__)) == len(emlang.__all__)
    assert all(hasattr(emlang, name) for name in emlang.__all__)
    public = {
        name for name, value in vars(emlang).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(emlang.__all__)


def test_console_script_and_python_m_call_one_entry_point():
    """The installed ``emlang`` script and ``python -m emlang`` both call
    ``cli.run``, and ``cli.py`` holds no third way in."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    script = project["project"]["scripts"]["emlang"]
    package = ROOT / "src" / "emlang"
    tree = ast.parse((package / "__main__.py").read_text(encoding="utf-8"))
    imported = [f"emlang.{node.module}:{alias.name}" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    called = [node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert script == "emlang.cli:run"
    assert imported == [script]
    assert called == ["run"]
    assert "__main__" not in (package / "cli.py").read_text(encoding="utf-8")


def test_every_public_definition_is_exported_or_used():
    """A top-level function, private or public, or a public class of
    ``src/emlang`` is in ``emlang.__all__`` or referenced in ``src`` outside
    its own definition, so that no dead public surface grows back unseen and
    no helper outlives its last caller.  The package's PEP 562 hooks are
    called by the interpreter, not from ``src``."""
    definitions, references = {}, set()
    for path in sorted((ROOT / "src" / "emlang").glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                own = statement.name
                if isinstance(statement, ast.FunctionDef) or not own.startswith("_"):
                    definitions[own] = f"{path.name}:{statement.lineno}"
            for node in ast.walk(statement):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name != own:
                    references.add(name)
    hooks = {"__getattr__": "__init__.py", "__dir__": "__init__.py"}
    dead = {name: where for name, where in definitions.items()
            if name not in emlang.__all__ and name not in references
            and where.split(":")[0] != hooks.get(name)}
    assert not dead, f"neither exported nor used: {dead}"


def test_every_error_code_is_raised():
    """Each ``EmlangError`` subclass of ``errors.py`` but the base is raised
    somewhere in ``src/emlang``, so that no error code outlives its last raise."""
    from emlang import errors

    codes = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.EmlangError)
        and value is not errors.EmlangError
    }
    raised = set()
    for path in sorted((ROOT / "src" / "emlang").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                error = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(ast.unparse(error).split(".")[-1])
    assert codes, "no error codes found"
    assert not codes - raised, f"never raised: {sorted(codes - raised)}"


def test_modules_import_only_public_names_and_kernels_stand_alone():
    """No module of ``src/emlang`` imports another's underscore name, so each
    shared helper is public where it is defined.  The array kernels live in
    ``kernels``, which imports no other emlang module, and not in ``schema``."""
    package = ROOT / "src" / "emlang"
    private, kernel_imports = [], []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom) or node.module == "__future__":
                continue
            if node.level or (node.module or "").split(".")[0] == "emlang":
                private += [f"{path.name}:{node.lineno} {alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
                if path.name == "kernels.py":
                    kernel_imports.append(node.module)
    assert not private, f"private names imported across modules: {private}"
    assert not kernel_imports
    schema = ast.parse((package / "schema.py").read_text(encoding="utf-8"))
    defined = {node.name for node in schema.body if isinstance(node, ast.FunctionDef)}
    assert not defined & {"run_starts", "distinct_keys", "observed_by_group"}


# The modules every command-line run imports, and the one behind ``distance``.
NUMPY_FREE = ("__init__", "cli", "errors", "distance")


def module_level_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, module) of each import that runs when the module is imported:
    every one outside a function body.  A relative import is named in full,
    ``emlang.x``."""
    found, stack = [], list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.append((node.lineno, f"emlang.{node.module}" if node.level else node.module))
        elif isinstance(node, ast.ImportFrom):  # from . import x
            found += [(node.lineno, f"emlang.{alias.name}") for alias in node.names]
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_start_up_modules_import_no_numpy():
    """``emlang``, ``cli``, ``errors`` and ``distance`` import numpy nowhere
    at module level, nor any emlang module outside this set, so ``--help``
    and ``distance`` start without numpy and every command imports only
    what it runs."""
    package = ROOT / "src" / "emlang"
    found = []
    for name in NUMPY_FREE:
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        for line, module in module_level_imports(tree):
            top, *below = module.split(".")
            if top == "numpy" or (top == "emlang" and below and below[0] not in NUMPY_FREE):
                found.append(f"{name}.py:{line} {module}")
    assert not found, f"numpy reached at start-up: {found}"


def test_import_gate_sees_every_kind_of_module_level_import():
    tree = ast.parse(
        "import numpy as np\n"
        "from . import corpus\n"
        "if True:\n"
        "    from .rules import Pattern\n"
        "class C:\n"
        "    from numpy import ndarray\n"
        "    def f(self):\n"
        "        import numpy\n"
        "def g():\n"
        "    from .synth import gen_noisy\n"
    )
    assert sorted(module_level_imports(tree)) == [
        (1, "numpy"), (2, "emlang.corpus"), (4, "emlang.rules"), (6, "numpy"),
    ]


def test_no_module_names_numpy_random():
    """Every seeded draw comes from ``kernels.Stream``; no module of
    ``src/emlang`` imports or names numpy's random module, which costs each
    drawing command 13-17 ms and about 6 MB of peak RSS to load, nor
    imports Python's ``random`` module, a second stream beside it."""
    found = []
    for path in sorted((ROOT / "src" / "emlang").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [ast.unparse(node)]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[:2] in (["np", "random"], ["numpy", "random"])
                      or (name.split(".")[0] == "random" and not isinstance(node, ast.Attribute))]
    assert not found


def test_cli_writes_standard_output_only_through_emit():
    """``cli._emit`` is the one writer of standard output, so a full, closed
    or broken one is ``NotFound`` everywhere: every ``print`` in ``cli.py``
    names ``file=sys.stderr``, and only ``_emit`` calls ``sys.stdout.write``
    or ``sys.stdout.writelines``."""
    tree = ast.parse((ROOT / "src" / "emlang" / "cli.py").read_text(encoding="utf-8"))
    emit = next(node for node in tree.body if getattr(node, "name", None) == "_emit")
    inside = {id(node) for node in ast.walk(emit)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        called = ast.unparse(node.func)
        to_stderr = any(keyword.arg == "file" and ast.unparse(keyword.value) == "sys.stderr"
                        for keyword in node.keywords)
        if (called == "print" and not to_stderr) or (
            called in ("sys.stdout.write", "sys.stdout.writelines") and id(node) not in inside
        ):
            found.append(f"cli.py:{node.lineno} {called}")
    assert not found, f"standard output written outside _emit: {found}"
