"""``python -m powergap``: the same command line as the ``powergap`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
