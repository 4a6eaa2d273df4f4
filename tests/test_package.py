"""The package's public names: each module's ``__all__``, stated once."""

import beamauction
from beamauction import assignment, auction, baseline, model, sim


def test_public_names_are_the_modules_public_names():
    modules = (model, assignment, auction, baseline, sim)
    expected = sorted(name for module in modules for name in module.__all__)
    assert beamauction.__all__ == expected
    assert len(set(expected)) == len(expected) == 26
    for name in expected:
        assert hasattr(beamauction, name), name
