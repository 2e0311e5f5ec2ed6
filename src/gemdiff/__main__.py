"""``python -m gemdiff``: the ``gem`` command line."""

import sys

from .harness import main

if __name__ == "__main__":
    sys.exit(main())
