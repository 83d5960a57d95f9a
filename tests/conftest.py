"""Marks every release acceptance test (``tests/test_acceptance.py``) as
``acceptance``, so ``pytest -m "not acceptance"`` runs the quick suite."""

import pytest


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.acceptance)
