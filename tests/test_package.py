"""Package surface: the top-level names are exactly the modules' public names."""

import binquant
from binquant import binormal, discrete_oracle, empirical, metrics, quantifiers

MODULES = (binormal, metrics, quantifiers, discrete_oracle, empirical)


def test_all_is_the_union_of_module_exports():
    expected = {name for module in MODULES for name in module.__all__} | {"__version__"}
    assert len(binquant.__all__) == len(set(binquant.__all__))
    assert set(binquant.__all__) == expected


def test_every_exported_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(binquant, name) is getattr(module, name), name
