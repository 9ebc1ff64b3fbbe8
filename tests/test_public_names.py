"""``cbp``'s two lists of public names agree: its imports and ``__all__``."""

import types

import cbp


def test_all_names_resolve_and_every_imported_name_is_listed():
    # A name left in ``__all__`` after its definition is gone breaks only
    # ``from cbp import *``; an imported name missing from it is not exported.
    assert len(cbp.__all__) == len(set(cbp.__all__))
    assert [name for name in cbp.__all__ if not hasattr(cbp, name)] == []
    imported = {
        name
        for name, value in vars(cbp).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(imported - set(cbp.__all__)) == []
    namespace: dict = {}
    exec("from cbp import *", namespace)
    assert set(cbp.__all__) <= set(namespace)


def test_test_only_oracles_are_not_library_names():
    # The brute-force oracles, ``make_packing`` and the whole-instance MWIS
    # wrapper had no caller in the library; the first three live in
    # tests/conftest.py, and the tests call ``graphs._mwis_core``.
    for module, name in (
        (cbp, "bis_brute"),
        (cbp, "maxsize_brute"),
        (cbp, "max_weight_independent_set"),
        (cbp.oracle, "bis_brute"),
        (cbp.oracle, "maxsize_brute"),
        (cbp.graphs, "max_weight_independent_set"),
        (cbp.model, "make_packing"),
    ):
        assert not hasattr(module, name), f"{module.__name__}.{name}"
