"""The package's public surface: ``kzero.__all__`` names exactly what it exports."""

import types

import kzero


def test_all_lists_every_public_name_and_nothing_else():
    # a stale export, or a public name that was never exported, fails here
    names = vars(kzero).items()
    public = {name for name, value in names if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(kzero.__all__) == public
    assert len(kzero.__all__) == len(public)
