import types

import xyness


def test_exports_resolve_once():
    names = xyness.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(xyness, name), name
    # and an import left behind binds no public name that __all__ lacks
    bound = {
        name
        for name, value in vars(xyness).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound <= set(names)
