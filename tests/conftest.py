"""The tests import sigmaprod from this checkout's ``src`` (pytest's
``pythonpath`` setting); the child interpreters some of them start find it
through ``PYTHONPATH``."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
