"""The package's public names: every exported name exists, once."""

import finslerpde


def test_every_exported_name_resolves():
    missing = [name for name in finslerpde.__all__ if not hasattr(finslerpde, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    names = finslerpde.__all__
    assert len(names) == len(set(names))
