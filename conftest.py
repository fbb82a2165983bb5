"""Puts ``examples/`` on ``sys.path`` for the whole suite, so tests and
benchmarks import the example packages (``multiway``) by the name that
``python -m multiway`` runs them under."""

import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent / "examples"))
