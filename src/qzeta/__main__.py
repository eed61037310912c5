"""Entry point for ``python -m qzeta``: the same command line as ``qzeta``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
