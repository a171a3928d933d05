"""Run the command-line front end: ``python -m ceslab <command> ...``."""

import sys

from .cli import main

__all__ = ["main"]

if __name__ == "__main__":
    sys.exit(main())
