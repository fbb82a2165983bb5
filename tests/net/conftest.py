"""Live-cluster tests dial localhost: short link timeouts bound every
wait on a dead or stopped peer."""

import pytest

from repro.net import link


@pytest.fixture(autouse=True)
def short_link_timeouts(monkeypatch):
    monkeypatch.setattr(link, "CONNECT_TIMEOUT", 1.0)
    monkeypatch.setattr(link, "IO_TIMEOUT", 2.0)
