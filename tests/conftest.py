import os
import socket

import pytest

from support import ChatServer


@pytest.fixture()
def chat_server(monkeypatch):
    """A loopback ``ChatServer``, reached directly whatever proxy the
    environment names; stopped, with its providers closed, after the test."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    server = ChatServer()
    try:
        yield server
    finally:
        server.stop()


@pytest.fixture()
def refused_port():
    """A loopback port bound but not listening: a connection to it is refused."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        yield sock.getsockname()[1]
