"""The public names: every name in a module's __all__ resolves, none is a
module, the retired names are gone, and a moved name resolves only where it
moved to.  The benchmark's tracer looks up every __all__ name of each layer,
so a stale entry would break a traced run."""

import importlib
from types import ModuleType

import pytest

import cluster_presents

LAYERS = ("formats", "dynkin", "exchange", "diagram", "presentation", "coset", "roots")

# names no command ran, retired in favour of the kernels behind them, and
# the certificates' wrapper and relator re-widening, which nothing needed;
# the exchange layer's wrappers of ExchangeMatrix.symmetriser and of the
# all-negative counterpart
RETIRED = {
    "exchange": ("cartan_counterpart", "find_symmetriser"),
    "roots": ("pairing", "copairing", "reflect", "relations_hold", "_BLOCK", "_unpack"),
    "diagram": ("canonical_form", "validate_finite_type_local", "identify_dynkin_type",
                "Violation", "ValidationReport"),
    "presentation": ("_presentations",),
}


@pytest.mark.parametrize("name", [None, *LAYERS])
def test_every_exported_name_resolves(name):
    module = cluster_presents if name is None else importlib.import_module(f"cluster_presents.{name}")
    assert module.__all__ and len(set(module.__all__)) == len(module.__all__)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, (module.__name__, missing)
    modules = [attr for attr in module.__all__ if isinstance(getattr(module, attr), ModuleType)]
    assert not modules, (module.__name__, modules)


@pytest.mark.parametrize("layer", sorted(RETIRED))
def test_retired_names_are_exported_nowhere(layer):
    module = importlib.import_module(f"cluster_presents.{layer}")
    for attr in RETIRED[layer]:
        assert not hasattr(module, attr), (layer, attr)
        assert attr not in cluster_presents.__all__ and not hasattr(cluster_presents, attr), attr


def test_retired_methods_are_gone():
    assert not hasattr(cluster_presents.RootSystem, "simple_reflection")
    assert not hasattr(cluster_presents.SignedGraph, "sign")


@pytest.mark.parametrize("name", ["cycle_sign_condition", "is_quasi_cartan_companion"])
def test_companion_checks_moved_from_exchange_to_roots(name):
    roots = importlib.import_module("cluster_presents.roots")
    exchange = importlib.import_module("cluster_presents.exchange")
    assert name in roots.__all__ and getattr(cluster_presents, name) is getattr(roots, name)
    assert name in cluster_presents.__all__
    assert name not in exchange.__all__ and not hasattr(exchange, name)
