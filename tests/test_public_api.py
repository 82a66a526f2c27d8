"""The package's public names: ``curveforge.__all__`` is the API, so every
name in it must resolve on the package, once, in sorted order.  An export
left behind by a removed function fails here, not at import."""

import curveforge


def test_every_exported_name_resolves():
    missing = [name for name in curveforge.__all__ if not hasattr(curveforge, name)]
    assert missing == []


def test_exports_are_unique_and_sorted():
    assert len(set(curveforge.__all__)) == len(curveforge.__all__)
    assert curveforge.__all__ == sorted(curveforge.__all__)
