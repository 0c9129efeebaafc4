import hadaquant


def test_every_exported_name_resolves():
    missing = [name for name in hadaquant.__all__ if not hasattr(hadaquant, name)]
    assert not missing
    assert len(set(hadaquant.__all__)) == len(hadaquant.__all__)
