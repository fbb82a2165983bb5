"""Make ``joinbench`` (this benchmark) and ``repro`` (the program under
test) importable, exactly as ``run.py`` does."""

import os
import sys

JOINBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(os.path.dirname(JOINBENCH))
for entry in (os.path.join(REPO, "src"), os.path.dirname(JOINBENCH)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
