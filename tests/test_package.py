"""The package's public surface."""

import ppvit


def test_every_public_name_resolves():
    missing = [name for name in ppvit.__all__ if not hasattr(ppvit, name)]
    assert missing == []
    assert len(set(ppvit.__all__)) == len(ppvit.__all__)
