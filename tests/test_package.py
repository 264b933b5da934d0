"""The package's public surface."""

import attainbench


def test_every_public_name_resolves_and_is_listed_once():
    names = attainbench.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(attainbench, name)]
    assert missing == []
