"""Echo servers and clients for every OS interface in the repository.

The same measurement (request-response RTT) across four software stacks:

* :func:`demi_echo_server` / :func:`demi_echo_client` - the portable
  Demikernel application: runs unchanged on the DPDK, RDMA, and POSIX
  libOSes (the paper's portability argument, executable);
* :func:`posix_echo_server` / :func:`posix_echo_client` - the legacy
  application written directly against kernel sockets;
* :func:`mtcp_echo_server` / :func:`mtcp_echo_client` - the same legacy
  application on the mTCP-style shim (C5's baseline).
"""

from __future__ import annotations

from typing import Generator, List, Sequence

from ..core.api import LibOS
from ..kernelos.kernel import Kernel
from ..libos.mtcp_shim import MtcpShim
from ..sim.trace import LatencyStats

__all__ = [
    "demi_echo_server",
    "demi_echo_client",
    "posix_echo_server",
    "posix_echo_client",
    "mtcp_echo_server",
    "mtcp_echo_client",
]


# ---------------------------------------------------------------------------
# Demikernel (portable across libOSes)
# ---------------------------------------------------------------------------

def demi_echo_server(libos: LibOS, port: int = 7,
                     max_requests: int = 0) -> Generator:
    """Accept one connection and echo every element back."""
    listen_qd = yield from libos.socket()
    yield from libos.bind(listen_qd, port)
    yield from libos.listen(listen_qd)
    qd = yield from libos.accept(listen_qd)
    served = 0
    while max_requests == 0 or served < max_requests:
        result = yield from libos.blocking_pop(qd)
        if result.error is not None:
            break
        yield from libos.blocking_push(qd, result.sga)
        served += 1
    return served


def demi_echo_client(libos: LibOS, server_addr: str,
                     messages: Sequence[bytes], port: int = 7,
                     stats: LatencyStats = None) -> Generator:
    """Send each message, wait for its echo; returns (replies, stats)."""
    stats = stats if stats is not None else LatencyStats("rtt")
    qd = yield from libos.socket()
    yield from libos.connect(qd, server_addr, port)
    replies: List[bytes] = []
    for message in messages:
        start = libos.sim.now
        yield from libos.blocking_push(qd, libos.sga_alloc(message))
        result = yield from libos.blocking_pop(qd)
        stats.add(libos.sim.now - start)
        replies.append(result.sga.tobytes())
    yield from libos.close(qd)
    return replies, stats


# ---------------------------------------------------------------------------
# Raw POSIX over the legacy kernel
# ---------------------------------------------------------------------------

def posix_echo_server(kernel: Kernel, port: int = 7,
                      max_requests: int = 0) -> Generator:
    """The classic accept/recv/send loop over kernel sockets."""
    sys = kernel.thread()
    listen_fd = yield from sys.socket()
    yield from sys.bind(listen_fd, port)
    yield from sys.listen(listen_fd)
    conn_fd = yield from sys.accept(listen_fd)
    served = 0
    while max_requests == 0 or served < max_requests:
        data = yield from sys.recv(conn_fd)
        if not data:
            break
        yield from sys.send(conn_fd, data)
        served += 1
    return served


def posix_echo_client(kernel: Kernel, server_ip: str,
                      messages: Sequence[bytes], port: int = 7,
                      stats: LatencyStats = None) -> Generator:
    stats = stats if stats is not None else LatencyStats("rtt")
    sys = kernel.thread()
    fd = yield from sys.socket()
    yield from sys.connect(fd, server_ip, port)
    replies: List[bytes] = []
    for message in messages:
        start = kernel.sim.now
        yield from sys.send(fd, message)
        reply = b""
        while len(reply) < len(message):
            chunk = yield from sys.recv(fd)
            if not chunk:
                break
            reply += chunk
        stats.add(kernel.sim.now - start)
        replies.append(reply)
    yield from sys.close(fd)
    return replies, stats


# ---------------------------------------------------------------------------
# mTCP-style shim (user-level stack, POSIX semantics)
# ---------------------------------------------------------------------------

def mtcp_echo_server(shim: MtcpShim, port: int = 7,
                     max_requests: int = 0) -> Generator:
    listener = shim.listen(port)
    conn = yield from shim.accept(listener)
    served = 0
    while max_requests == 0 or served < max_requests:
        data = yield from conn.recv()
        if not data:
            break
        yield from conn.send(data)
        served += 1
    return served


def mtcp_echo_client(shim: MtcpShim, server_ip: str,
                     messages: Sequence[bytes], port: int = 7,
                     stats: LatencyStats = None) -> Generator:
    stats = stats if stats is not None else LatencyStats("rtt")
    conn = yield from shim.connect(server_ip, port)
    replies: List[bytes] = []
    for message in messages:
        start = shim.sim.now
        yield from conn.send(message)
        reply = b""
        while len(reply) < len(message):
            chunk = yield from conn.recv()
            if not chunk:
                break
            reply += chunk
        stats.add(shim.sim.now - start)
        replies.append(reply)
    yield from conn.close()
    return replies, stats
