"""Every exported name resolves, and the attacks package re-exports exactly
its two submodules' public names (so a deleted helper leaves no stale
export behind)."""

import importlib
import pkgutil

import pytest

import ldplab
import ldplab.attacks
import ldplab.attacks.grid
import ldplab.attacks.tree

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(ldplab.__path__, prefix="ldplab.")
)


def test_every_module_is_found():
    assert {"ldplab.attacks", "ldplab.attacks.grid", "ldplab.harness"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ has duplicates"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_attacks_reexports_both_submodules():
    expected = set(ldplab.attacks.tree.__all__) | set(ldplab.attacks.grid.__all__)
    assert set(ldplab.attacks.__all__) == expected
    assert len(ldplab.attacks.__all__) == len(expected)
