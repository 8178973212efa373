"""``python -m fcalc``: the ``fcalc`` command line."""
import sys

from fcalc.cli import main

if __name__ == "__main__":
    sys.exit(main())
