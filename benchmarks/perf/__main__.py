"""Entry point for ``python3 benchmarks/perf`` and ``python -m benchmarks.perf``."""

import sys
from pathlib import Path

if not __package__:
    # Run as a script: import through the package, so this directory's
    # module names cannot shadow anything on the path.
    sys.path[0] = str(Path(__file__).resolve().parent.parent.parent)
    from benchmarks.perf.cli import main
else:
    from .cli import main

if __name__ == "__main__":
    sys.exit(main())
