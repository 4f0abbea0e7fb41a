"""The tests import sigmaprod from this checkout's ``src`` (pytest's
``pythonpath`` setting); the child interpreters some of them start find it
through ``PYTHONPATH``."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def cold_schemas():
    """The memo of ``classification._level_schema``, emptied before and after
    the test: a partition built in it checks its types and proves its levels
    anew, as under a patched ``box_reduce``, and leaves no key behind."""
    from sigmaprod import classification

    memo = classification._level_schema
    memo.cache_clear()
    yield memo
    memo.cache_clear()
