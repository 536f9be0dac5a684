import os
import subprocess
import sys

import cathub


def test_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency; the package must not pull it in
    src = os.path.dirname(os.path.dirname(os.path.abspath(cathub.__file__)))
    code = "import sys, cathub; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert proc.stdout.strip() == "False"


def test_every_export_resolves():
    # a name left in __all__ after its definition was deleted fails here
    modules = [cathub] + [m for m in vars(cathub).values() if hasattr(m, "__all__") and m is not cathub]
    missing = [(m.__name__, name) for m in modules for name in m.__all__ if not hasattr(m, name)]
    assert missing == []
    assert len(set(cathub.__all__)) == len(cathub.__all__)
