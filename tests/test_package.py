import threadrec


def test_every_exported_name_resolves():
    missing = [name for name in threadrec.__all__ if not hasattr(threadrec, name)]
    assert missing == []
