import ast
import glob
import os
import subprocess
import sys

import cathub


def _loaded_after(statement: str, module: str) -> bool:
    """Whether `module` is in sys.modules after running `statement` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cathub.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; {statement}; print({module!r} in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    return proc.stdout.strip() == "True"


def test_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency; the package must not pull it in
    assert not _loaded_after("import cathub", "scipy")


def test_cli_import_leaves_process_pool_unloaded():
    # only --workers > 1 starts a pool, so no other run should pay for importing it
    assert not _loaded_after("import cathub.cli", "concurrent.futures.process")


def test_every_export_resolves():
    # a name left in __all__ after its definition was deleted fails here
    modules = [cathub] + [m for m in vars(cathub).values() if hasattr(m, "__all__") and m is not cathub]
    missing = [(m.__name__, name) for m in modules for name in m.__all__ if not hasattr(m, name)]
    assert missing == []
    assert len(set(cathub.__all__)) == len(cathub.__all__)


def _unused_imports(path: str) -> list:
    """Names that a module imports and never reads; names in its __all__ count as read."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "__all__" for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{os.path.basename(path)}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    here = os.path.dirname(os.path.abspath(__file__))
    package = os.path.dirname(os.path.abspath(cathub.__file__))
    paths = sorted(glob.glob(os.path.join(package, "*.py")) + glob.glob(os.path.join(here, "*.py")))
    assert [name for path in paths for name in _unused_imports(path)] == []
