import importlib

import pytest

import rankadapt


def test_every_public_name_is_its_modules_attribute():
    for name in rankadapt.__all__:
        obj = getattr(rankadapt, name)
        assert obj.__module__.startswith("rankadapt.")
        assert obj is getattr(importlib.import_module(obj.__module__), name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from rankadapt import *", namespace)
    assert set(rankadapt.__all__) <= set(namespace)
    for name in rankadapt.__all__:
        assert namespace[name] is getattr(rankadapt, name)


def test_dir_lists_every_public_name():
    assert set(rankadapt.__all__) | {"__version__"} <= set(dir(rankadapt))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="'rankadapt' has no attribute 'no_such_name'"):
        rankadapt.no_such_name
    assert not hasattr(rankadapt, "MatrixBundle")
