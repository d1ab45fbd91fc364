from __future__ import annotations

import inspect

import emlang


def test_all_lists_exactly_the_public_imports():
    """No stale, missing or repeated export in ``emlang.__all__``."""
    assert len(set(emlang.__all__)) == len(emlang.__all__)
    assert all(hasattr(emlang, name) for name in emlang.__all__)
    public = {
        name for name, value in vars(emlang).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(emlang.__all__)
