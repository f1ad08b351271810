"""repro: a simulated reproduction of the Demikernel (HotOS 2019).

"I'm Not Dead Yet! The Role of the Operating System in a Kernel-Bypass
Era" - Zhang, Liu, Austin, Roberts, Badam.

The package builds the paper's proposed system *and* everything it rests
on inside a nanosecond-resolution discrete-event simulator:

* ``repro.sim``      - the simulation substrate (engine, CPUs, costs, fabric)
* ``repro.hw``       - kernel-bypass devices (DPDK/RDMA NICs, NVMe, offload)
* ``repro.kernelos`` - the legacy kernel baseline (sockets, epoll, VFS)
* ``repro.netstack`` - a from-scratch user-level TCP/IP stack
* ``repro.rdma``     - verbs + rdmacm over the simulated RDMA NIC
* ``repro.memory``   - transparent registration + free-protection
* ``repro.storage``  - the log-structured accelerator storage layout
* ``repro.core``     - the Demikernel: queues, the Figure-3 API, wait_*
* ``repro.libos``    - one library OS per accelerator class
* ``repro.apps``     - echo / KV store / cache / worker pools / logs
* ``repro.testbed``  - assembled clusters for experiments

Quickstart::

    from repro.testbed import make_dpdk_libos_pair
    from repro.apps import demi_echo_server, demi_echo_client

    world, client, server = make_dpdk_libos_pair()
    world.sim.spawn(demi_echo_server(server))
    proc = world.sim.spawn(demi_echo_client(client, "10.0.0.2", [b"hi"]))
    world.run()
    replies, stats = proc.value
"""

from .core import DemiError, LibOS, QResult, Sga, SgaSegment
from .sim import CostModel, DEFAULT_COSTS, Simulator

__version__ = "0.1.0"

__all__ = [
    "LibOS",
    "Sga",
    "SgaSegment",
    "QResult",
    "DemiError",
    "Simulator",
    "CostModel",
    "DEFAULT_COSTS",
]
