import weakref

import pytest


@pytest.fixture
def builds(monkeypatch):
    """builds(kind): a list that gets a weakref to every kind instance built from then on."""
    def track(kind):
        refs = []
        init = kind.__init__

        def counted(self, *args):
            init(self, *args)
            refs.append(weakref.ref(self))
        monkeypatch.setattr(kind, "__init__", counted)
        return refs
    return track
