"""``python -m evalcode``: the ``evalcode`` command line (evalcode.cli)."""

import sys

from evalcode.cli import main

sys.exit(main())
