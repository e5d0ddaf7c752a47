import irrbase


def test_every_export_resolves():
    missing = [name for name in irrbase.__all__ if not hasattr(irrbase, name)]
    assert missing == []
    assert len(set(irrbase.__all__)) == len(irrbase.__all__)
