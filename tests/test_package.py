import subprocess
import sys
from pathlib import Path

import brauersplit


def test_import_loads_neither_numpy_nor_process_pool():
    src = str(Path(brauersplit.__file__).resolve().parent.parent)
    # the CLI entry point loads no logging either
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import brauersplit.cli; "
        "print(sorted({'numpy', 'concurrent.futures.process', 'logging'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, src], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
