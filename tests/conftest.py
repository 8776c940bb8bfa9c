import threading
import time

import pytest

from toolgrid.config import NodeConfig
from toolgrid.node import Node
from toolgrid.uplink import RelayServer

from helpers import link_nodes


@pytest.fixture(autouse=True)
def runs_end():
    """Fail a test that leaves a run thread alive once its nodes have stopped.

    Autouse fixtures set up first, so this teardown runs after make_node's.
    A stopped node cancels its runs with a 5 s grace; 10 s bounds the join.
    """
    yield
    deadline = time.monotonic() + 10
    runs = [t for t in threading.enumerate() if t.name.startswith("run-")]
    for thread in runs:
        thread.join(max(deadline - time.monotonic(), 0))
    alive = [thread.name for thread in runs if thread.is_alive()]
    assert not alive, f"runs still live after the test: {alive}"


@pytest.fixture
def make_node(tmp_path):
    """Factory for isolated nodes sharing one temp tree; stops them at teardown."""
    created = []
    counter = [0]

    def factory(name=None, **kwargs):
        counter[0] += 1
        label = name or f"node{counter[0]}"
        node = Node(NodeConfig(tmp_path / f"grid-{label}", display_name=label, **kwargs))
        created.append(node)
        return node

    yield factory
    for node in created:
        node.stop()


@pytest.fixture
def node(make_node):
    return make_node("solo")


@pytest.fixture
def lan_pair(make_node):
    a = make_node("alpha")
    b = make_node("beta")
    link_nodes(a, b)
    return a, b


@pytest.fixture
def make_relay():
    servers = []

    def factory(tokens):
        server = RelayServer(tokens)
        port = server.start("127.0.0.1", 0)
        servers.append(server)
        return server, port

    yield factory
    for server in servers:
        server.stop()
