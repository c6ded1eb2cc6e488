"""The repository benchmark: a load generator for ``repro serve --async``.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload (``--workload all`` runs every one) and
prints a human report followed by one JSON result line.  See
``BENCHMARK.json`` at the repository root for the workloads and metrics.
"""

#: One BLAS thread per process: the host has two cores and the load
#: generator shares them with the server, so a second BLAS thread in
#: either process only oversubscribes them.  Set before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
