import importlib

import numpy as np
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
    tensorio = importlib.import_module("rankadapt.tensorio")
    for gone in ("MatrixBundle", "staged_bundle"):
        assert not hasattr(rankadapt, gone)
        assert not hasattr(tensorio, gone)
    depthloss = importlib.import_module("rankadapt.depthloss")
    for gone in ("pack_image", "unpack_image", "pack_depth", "unpack_depth"):
        assert not hasattr(rankadapt, gone)
        assert not hasattr(depthloss, gone)
    stm = importlib.import_module("rankadapt.stm")
    for gone in ("initialize_adapter", "adapt_layer"):
        assert not hasattr(rankadapt, gone)
        assert not hasattr(stm, gone)
    f = rankadapt.decompose(np.eye(2))
    with pytest.raises(TypeError):
        rankadapt.reconstruct(f, {1})  # no partial reconstruction
