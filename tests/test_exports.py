"""The package's public names: every entry of domdist.__all__ resolves, once."""

import domdist


def test_every_export_resolves():
    missing = [name for name in domdist.__all__ if not hasattr(domdist, name)]
    assert missing == []


def test_no_export_listed_twice():
    assert len(set(domdist.__all__)) == len(domdist.__all__)
