"""Puts the benchmark's modules and the checkout's ``src/`` on the path, as
``run.py`` does when it runs as a script."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
