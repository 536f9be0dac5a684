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
