"""The package namespace: what ``from bezmat import *`` binds."""

import bezmat


def test_star_import_binds_every_public_name():
    # a name dropped from the imports but left in __all__ would make the
    # star-import raise AttributeError
    names = {}
    exec("from bezmat import *", names)
    assert len(set(bezmat.__all__)) == len(bezmat.__all__)
    missing = [name for name in bezmat.__all__ if name not in names]
    assert missing == []
