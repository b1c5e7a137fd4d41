"""Every exported name resolves, and the attacks package re-exports exactly
its two submodules' public names (so a deleted helper leaves no stale
export behind).  The benchmark's span tracer patches package functions by
name, so every name it targets must resolve too.

Every exported name also has a caller in the package or the benchmark: a
name in an ``ldplab`` module's ``__all__`` must be read (as a name, an
attribute or an imported name) somewhere in ``src/ldplab`` or ``bench/``.
Docstrings and ``__all__`` strings do not count.  Code that only tests read,
such as reference implementations and fixture serializers, belongs in
``tests/oracles.py``."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import ldplab
import ldplab.attacks
import ldplab.attacks.grid
import ldplab.attacks.tree

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(ldplab.__path__, prefix="ldplab.")
)
ROOT = Path(__file__).resolve().parent.parent


def test_every_module_is_found():
    assert {"ldplab.attacks", "ldplab.attacks.grid", "ldplab.harness"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ has duplicates"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _names_read(directory: Path) -> set:
    """Every name read in the directory's Python files: loaded names and
    attributes, and the names of import aliases."""
    names = set()
    for path in sorted(directory.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_export_has_a_package_caller():
    read = _names_read(ROOT / "src" / "ldplab") | _names_read(ROOT / "bench")
    uncalled = [
        f"{name}.{attr}"
        for name in MODULES
        for attr in getattr(importlib.import_module(name), "__all__", [])
        if attr not in read
    ]
    assert not uncalled, f"exported with no caller in src/ldplab or bench/: {uncalled}"


def test_attacks_reexports_both_submodules():
    expected = set(ldplab.attacks.tree.__all__) | set(ldplab.attacks.grid.__all__)
    assert set(ldplab.attacks.__all__) == expected
    assert len(ldplab.attacks.__all__) == len(expected)


def _bench_tracer():
    path = ROOT / "bench" / "tracer.py"
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


def test_bench_counters_read_real_results():
    """The traced bench's counters accept what the wrapped functions return,
    so a result type the tracer cannot read fails here, not in the bench."""
    from ldplab import freq_oracles as fo

    tracer_module = _bench_tracer()
    tracer = tracer_module.Tracer()
    counters = tracer_module._counters(tracer)
    rng = np.random.default_rng(0)
    olh = fo.OlhParams(1.0)
    family = fo.HashFamily(17, olh.g)
    cells = np.arange(8)
    pairs = fo.olh_perturb_batch(cells, family, olh, rng)
    oue = (np.array([0, 2, 1]), fo.OueParams(1.0, 3), rng)
    calls = [
        ("oue_perturb_batch", fo.oue_perturb_batch, oue, {}),
        # Column counts alone: the result's ``ones`` is None.
        ("oue_perturb_batch", fo.oue_perturb_batch, oue, {"per_report": False}),
        ("olh_perturb_batch", fo.olh_perturb_batch, (cells, family, olh, rng), {}),
        ("olh_aggregate", fo.olh_aggregate, (pairs, family, cells), {}),
        ("HashFamily.key_table", fo.HashFamily.key_table, (family, 8), {}),
    ]
    for target, function, args, kwargs in calls:
        bound = inspect.signature(function).bind(*args, **kwargs).arguments
        counters[target](bound, function(*args, **kwargs))
    c = tracer.counters
    assert c["oue_bits"] == 18 and c["layer_nodes"] == 6 and c["oue_bytes"] > 0
    assert c["olh_reports"] == 8 and c["olh_hash_evals"] == 64
    assert c["key_table_entries"] == family.n_random_functions * 8
