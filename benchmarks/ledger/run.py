"""Script entry point: ``python3 benchmarks/ledger/run.py [options]``.

Same command line as ``python -m benchmarks.ledger``; this form needs no
``PYTHONPATH`` because it puts the checkout root on ``sys.path`` itself.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.ledger.ledger import main  # noqa: E402 - after the path fix

if __name__ == "__main__":
    sys.exit(main())
