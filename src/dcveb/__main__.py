"""``python -m dcveb``: the benchmark CLI, the same as ``dcveb-bench``."""

import sys

from .bench import main

if __name__ == "__main__":
    sys.exit(main())
