"""The public names: every name in a module's __all__ resolves, and the
retired names are gone.  The benchmark's tracer looks up every __all__ name
of each layer, so a stale entry would break a traced run."""

import importlib

import pytest

import cluster_presents

LAYERS = ("formats", "dynkin", "exchange", "diagram", "presentation", "coset", "roots")

# names no command ran, retired in favour of the kernels behind them
RETIRED = {
    "roots": ("pairing", "copairing", "reflect", "relations_hold"),
    "diagram": ("canonical_form", "validate_finite_type_local", "identify_dynkin_type",
                "Violation", "ValidationReport"),
}


@pytest.mark.parametrize("name", [None, *LAYERS])
def test_every_exported_name_resolves(name):
    module = cluster_presents if name is None else importlib.import_module(f"cluster_presents.{name}")
    assert module.__all__ and len(set(module.__all__)) == len(module.__all__)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, (module.__name__, missing)


@pytest.mark.parametrize("layer", sorted(RETIRED))
def test_retired_names_are_exported_nowhere(layer):
    module = importlib.import_module(f"cluster_presents.{layer}")
    for attr in RETIRED[layer]:
        assert not hasattr(module, attr), (layer, attr)
        assert attr not in cluster_presents.__all__ and not hasattr(cluster_presents, attr), attr


def test_retired_methods_are_gone():
    assert not hasattr(cluster_presents.RootSystem, "simple_reflection")
    assert not hasattr(cluster_presents.SignedGraph, "sign")
