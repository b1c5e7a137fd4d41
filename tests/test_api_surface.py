"""Every exported name resolves, and the attacks package re-exports exactly
its two submodules' public names (so a deleted helper leaves no stale
export behind).  The benchmark's span tracer patches package functions by
name, so every name it targets must resolve too."""

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

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


def _bench_tracer():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_targets_resolve():
    missing = []
    for module_name, target, _ in _bench_tracer().SPANS:
        owner = importlib.import_module(module_name)
        *cls, attr = target.split(".")
        if cls:
            owner = getattr(owner, cls[0], None)
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(f"{module_name}.{target}")
    assert not missing, f"bench/tracer.py spans with no target: {missing}"


@pytest.mark.parametrize(
    "name, params",
    [
        ("oue_perturb_batch", {"true_indices", "params"}),
        ("olh_perturb_batch", {"true_cells"}),
        ("olh_aggregate", {"pairs", "cells"}),
    ],
)
def test_bench_counter_parameters_exist(name, params):
    from ldplab import freq_oracles

    signature = inspect.signature(getattr(freq_oracles, name))
    assert params <= set(signature.parameters), f"{name}{signature}"
