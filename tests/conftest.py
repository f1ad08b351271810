"""Shared fixtures: the simulation builders live in repro.testbed."""

import pytest

from repro.testbed import (  # noqa: F401 - re-exported for test modules
    NetHost,
    World,
    make_dpdk_libos_pair,
    make_kernel_pair,
    make_mtcp_pair,
    make_net_pair,
    make_posix_libos_pair,
    make_rdma_libos_pair,
    make_spdk_libos,
)


def record_spawns(sim):
    """Every process *sim* spawns from now on, appended to the list this
    returns (teardown tests ask of each: are you still alive?)."""
    spawned, spawn = [], sim.spawn

    def recording_spawn(gen, name=""):
        spawned.append(spawn(gen, name))
        return spawned[-1]

    sim.spawn = recording_spawn
    return spawned


@pytest.fixture
def world():
    return World()


@pytest.fixture
def net_pair():
    return make_net_pair()


def proto_client(libos, codec_cls, requests, addr="10.0.0.2", port=6379):
    """Spawn-me closed loop against a ProtoServer speaking *codec_cls*:
    one Request, then its Response; returns the Responses."""
    codec = codec_cls()
    qd = yield from libos.socket()
    yield from libos.connect(qd, addr, port)
    responses = []
    for request in requests:
        yield from libos.blocking_push(
            qd, libos.sga_alloc(codec.encode_request(request)))
        replies = []
        while not replies:
            result = yield from libos.blocking_pop(qd)
            assert result.error is None, result.error
            replies = codec.feed_responses(result.sga.tobytes())
        responses.append(replies[0])
    yield from libos.close(qd)
    return responses


def chunk_client(libos, codec_cls, chunks, n_replies, addr="10.0.0.2",
                 port=6379):
    """Spawn-me: push pre-encoded byte chunks, then collect *n_replies*
    Responses (fewer if the server hangs up first)."""
    codec = codec_cls()
    qd = yield from libos.socket()
    yield from libos.connect(qd, addr, port)
    for chunk in chunks:
        yield from libos.blocking_push(qd, libos.sga_alloc(chunk))
    replies = []
    while len(replies) < n_replies:
        result = yield from libos.blocking_pop(qd)
        if result.error is not None:
            break  # server hung up on us
        replies.extend(codec.feed_responses(result.sga.tobytes()))
    yield from libos.close(qd)
    return replies
