import types

import birdtracks


def test_all_names_exactly_the_public_bindings():
    bound = {name for name, value in vars(birdtracks).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert len(set(birdtracks.__all__)) == len(birdtracks.__all__)
    assert set(birdtracks.__all__) == bound
    namespace = {}
    exec("from birdtracks import *", namespace)
    assert set(birdtracks.__all__) <= namespace.keys()
