"""python -m riccstab: the command-line front-end of riccstab.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
