"""STOR - the storage path (section 5.3).

Append-and-fsync batches plus a sequential read-back, through the kernel
VFS (syscalls + copies + page cache + block layer) and through the SPDK
libOS (user-space submissions + the custom log layout).  Flash time
dominates both; the software tax difference is the experiment.
"""

from repro.apps.storelog import demi_log_writer, posix_log_writer
from repro.bench.report import print_table, us
from repro.testbed import make_spdk_libos, make_vfs_kernel

N_RECORDS = 64
RECORD_SIZE = 1024
SYNC_EVERY = 8


def records():
    return [b"%04d-" % i + b"r" * (RECORD_SIZE - 5) for i in range(N_RECORDS)]


def run_demi():
    w, libos = make_spdk_libos()
    p = w.sim.spawn(demi_log_writer(libos, records(), sync_every=SYNC_EVERY))
    w.sim.run_until_complete(p, limit=10**14)
    stats, readback = p.value
    assert readback == records()
    return {
        "stack": "SPDK libOS (catfish)",
        "batch_mean_ns": stats.mean,
        "batch_p99_ns": stats.p99,
        "syscalls": 0,
        "copied_bytes": 0,
        "host_cpu_ns": libos.host.cpus.total_busy_ns(),
    }


def run_posix():
    w, kernel = make_vfs_kernel()
    p = w.sim.spawn(posix_log_writer(kernel, records(), sync_every=SYNC_EVERY))
    w.sim.run_until_complete(p, limit=10**14)
    stats, readback = p.value
    assert readback == records()
    return {
        "stack": "kernel VFS",
        "batch_mean_ns": stats.mean,
        "batch_p99_ns": stats.p99,
        "syscalls": w.tracer.get("h.kernel.syscalls"),
        "copied_bytes": (w.tracer.get("h.kernel.bytes_copied_tx")
                         + w.tracer.get("h.kernel.bytes_copied_rx")),
        "host_cpu_ns": kernel.host.cpus.total_busy_ns(),
    }


def test_stor_storage_path(benchmark, once):
    def run():
        return [run_posix(), run_demi()]

    posix, demi = once(benchmark, run)
    print_table(
        "STOR: append+fsync batches (%d x %dB records, fsync every %d)"
        % (N_RECORDS, RECORD_SIZE, SYNC_EVERY),
        ["stack", "batch mean", "batch p99", "syscalls", "copied B",
         "host CPU"],
        [(r["stack"], us(r["batch_mean_ns"]), us(r["batch_p99_ns"]),
          r["syscalls"], r["copied_bytes"], us(r["host_cpu_ns"]))
         for r in (posix, demi)],
    )
    # The libOS path is strictly faster and pays no kernel taxes.
    assert demi["batch_mean_ns"] < posix["batch_mean_ns"]
    assert demi["syscalls"] == 0 and demi["copied_bytes"] == 0
    assert posix["syscalls"] > 0 and posix["copied_bytes"] > 0
    assert demi["host_cpu_ns"] < posix["host_cpu_ns"]
    benchmark.extra_info["posix_over_demi_batch"] = (
        posix["batch_mean_ns"] / demi["batch_mean_ns"])
