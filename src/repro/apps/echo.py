"""Echo servers and clients for every OS interface in the repository.

One measurement (request-response RTT), two applications, five stacks:

* :func:`demi_echo_server` / :func:`demi_echo_client` - the portable
  Demikernel application: runs unchanged on the DPDK, RDMA, and POSIX
  libOSes (the paper's portability argument, executable).  The server
  backstops each pop with an optional idle timeout, returns
  ``(served, outcome)`` and closes both queues it opened, so the
  crash battery's ``crash-mid-stream`` scenario - the ``echo`` row
  under a plan that kills its client - kills the client of this very
  server, not of a copy;
* :func:`posix_echo_server` / :func:`posix_echo_client` - the legacy
  application written against the kernel's socket calls: runs unchanged
  on the kernel and on the mTCP-style shim (C5's baseline), which keeps
  the POSIX abstraction and so its taxes.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence

from ..core.api import LibOS
from ..core.types import DemiError, DemiTimeout
from ..sim.trace import LatencyStats

__all__ = [
    "demi_echo_server",
    "demi_echo_client",
    "posix_echo_server",
    "posix_echo_client",
]


# ---------------------------------------------------------------------------
# Demikernel (portable across libOSes)
# ---------------------------------------------------------------------------

def demi_echo_server(libos: LibOS, port: int = 7, max_requests: int = 0,
                     idle_timeout_ns: Optional[int] = None) -> Generator:
    """Accept one connection and echo every element back.

    Each request is a ``pop`` waited on with *idle_timeout_ns* (None arms
    no timer): RDMA RC gives no wire-visible signal of a peer's death
    while the server is quiescent (it surfaces only on the send side, as
    ``retry-exceeded``), so detecting it needs a timer, as on real verbs
    hardware.  A timeout cancels the pop and ends the session, as does a
    failed pop or push.  Returns ``(served, outcome)``: the echoes that
    went out and what ended the session (``"served-all"`` after
    *max_requests*, ``"idle-timeout"``, or the failed operation's
    error).  Both queues it opened are closed on the way out.
    """
    listen_qd = yield from libos.socket()
    yield from libos.bind(listen_qd, port)
    yield from libos.listen(listen_qd)
    qd = yield from libos.accept(listen_qd)
    served = 0
    outcome = "served-all"
    while max_requests == 0 or served < max_requests:
        token = libos.pop(qd)
        try:
            _index, result = yield from libos.wait_any(
                [token], timeout_ns=idle_timeout_ns)
        except DemiTimeout:
            libos.cancel(token)
            outcome = "idle-timeout"
            break
        if result.error is not None:
            outcome = result.error
            break
        reply = yield from libos.blocking_push(qd, result.sga)
        libos.sga_free(result.sga)
        if reply.error is not None:
            outcome = reply.error
            break
        served += 1
    yield from libos.close(qd)
    yield from libos.close(listen_qd)
    return served, outcome


def demi_echo_client(libos: LibOS, server_addr: str,
                     messages: Sequence[bytes], port: int = 7) -> Generator:
    """Send each message, wait for its echo; returns (replies, stats).
    A failed pop raises :class:`~repro.core.types.DemiError`."""
    stats = LatencyStats("rtt")
    qd = yield from libos.socket()
    yield from libos.connect(qd, server_addr, port)
    replies: List[bytes] = []
    for message in messages:
        start = libos.sim.now
        yield from libos.blocking_push(qd, libos.sga_alloc(message))
        result = yield from libos.blocking_pop(qd)
        if result.error is not None:
            raise DemiError("echo connection lost: %s" % result.error)
        stats.add(libos.sim.now - start)
        replies.append(result.sga.tobytes())
        libos.sga_free(result.sga)
    yield from libos.close(qd)
    return replies, stats


# ---------------------------------------------------------------------------
# Raw POSIX: the kernel's sockets, or the mTCP shim's copy of them
# ---------------------------------------------------------------------------

def posix_echo_server(os, port: int = 7) -> Generator:
    """The classic accept/recv/send loop over *os*'s sockets (a
    :class:`~repro.kernelos.kernel.Kernel` or an mTCP shim), until the
    client closes; returns the requests it echoed."""
    sys = os.thread()
    listen_fd = yield from sys.socket()
    yield from sys.bind(listen_fd, port)
    yield from sys.listen(listen_fd)
    conn_fd = yield from sys.accept(listen_fd)
    served = 0
    while True:
        data = yield from sys.recv(conn_fd)
        if not data:
            break
        yield from sys.send(conn_fd, data)
        served += 1
    return served


def posix_echo_client(os, server_ip: str, messages: Sequence[bytes],
                      port: int = 7) -> Generator:
    stats = LatencyStats("rtt")
    sys = os.thread()
    fd = yield from sys.socket()
    yield from sys.connect(fd, server_ip, port)
    replies: List[bytes] = []
    for message in messages:
        start = os.sim.now
        yield from sys.send(fd, message)
        reply = b""
        while len(reply) < len(message):
            chunk = yield from sys.recv(fd)
            if not chunk:
                break
            reply += chunk
        stats.add(os.sim.now - start)
        replies.append(reply)
    yield from sys.close(fd)
    return replies, stats
