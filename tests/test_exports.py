import quatheta


def test_every_exported_name_resolves():
    # a name deleted from a module but left in __all__ would break
    # `from quatheta import *`
    missing = [n for n in quatheta.__all__ if not hasattr(quatheta, n)]
    assert missing == []
    assert len(set(quatheta.__all__)) == len(quatheta.__all__)
