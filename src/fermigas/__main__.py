"""`python -m fermigas`: the same command as the `fermigas` console script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
