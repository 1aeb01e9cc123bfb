"""Tests for the package namespace."""

import importlib.metadata
import types

import pytest

import pbrkit


def test_public_surface():
    # __all__ names exactly the public non-module names that pbrkit binds
    assert all(hasattr(pbrkit, name) for name in pbrkit.__all__)
    bound = {
        name
        for name, value in vars(pbrkit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(pbrkit.__all__)) == len(pbrkit.__all__)
    assert set(pbrkit.__all__) - {"__version__"} == bound


def test_installed_version_is_the_package_version():
    # pyproject.toml reads the version from pbrkit.__version__
    try:
        installed = importlib.metadata.version("pbrkit")
    except importlib.metadata.PackageNotFoundError:
        pytest.skip("pbrkit is not installed")
    assert installed == pbrkit.__version__
