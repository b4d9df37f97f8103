"""Command line entry point for ``python -m pgsynth``; same as the pgsynth script."""

import sys

from .cli import main

sys.exit(main())
