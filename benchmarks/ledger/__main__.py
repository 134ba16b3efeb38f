"""``python -m benchmarks.ledger``: see :mod:`benchmarks.ledger.ledger`."""

import sys

from benchmarks.ledger.ledger import main

sys.exit(main())
