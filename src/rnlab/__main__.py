"""``python -m rnlab``: the command-line front end, as the ``rnlab`` script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
