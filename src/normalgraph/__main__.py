"""``python -m normalgraph``: the same command line as the ``normalgraph`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
