"""STOR - the storage path (section 5.3).

Append-and-fsync batches plus a sequential read-back, through the kernel
VFS (syscalls + copies + page cache + block layer) and through the SPDK
libOS (user-space submissions + the custom log layout): the ``storage``
workload on its two kinds.  Flash time dominates both; the software tax
difference is the experiment.
"""

from repro.bench.report import print_table, us

N_RECORDS = 64
RECORD_SIZE = 1024
SYNC_EVERY = 8
STACKS = {"vfs": "kernel VFS", "spdk": "SPDK libOS (catfish)"}


def test_stor_storage_path(benchmark, once, metrics):
    posix, demi = once(benchmark, lambda: [
        metrics("storage", kind, n_records=N_RECORDS,
                record_size=RECORD_SIZE, sync_every=SYNC_EVERY)
        for kind in STACKS])
    print_table(
        "STOR: append+fsync batches (%d x %dB records, fsync every %d)"
        % (N_RECORDS, RECORD_SIZE, SYNC_EVERY),
        ["stack", "batch mean", "batch p99", "syscalls", "copied B",
         "host CPU"],
        [(stack, us(r["batch_mean_ns"]), us(r["batch_p99_ns"]),
          r["syscalls"], r["bytes_copied"], us(r["host_cpu_ns"]))
         for stack, r in zip(STACKS.values(), (posix, demi))],
    )
    # The libOS path is strictly faster and pays no kernel taxes.
    assert demi["batch_mean_ns"] < posix["batch_mean_ns"]
    assert demi["syscalls"] == 0 and demi["bytes_copied"] == 0
    assert posix["syscalls"] > 0 and posix["bytes_copied"] > 0
    assert demi["host_cpu_ns"] < posix["host_cpu_ns"]
    benchmark.extra_info["posix_over_demi_batch"] = (
        posix["batch_mean_ns"] / demi["batch_mean_ns"])
