import threadrec


def test_every_exported_name_resolves():
    missing = [name for name in threadrec.__all__ if not hasattr(threadrec, name)]
    assert missing == []


def test_the_exports_are_the_home_table_and_the_version():
    # a name listed under two modules would be exported from one of them only
    homed = [name for names in threadrec._HOMES.values() for name in names]
    assert sorted(threadrec.__all__) == sorted(homed + ["__version__"])
