"""Benchmark harness for leraydec; run it with `python3 perfbench/run.py --help`."""

# Thread pools are pinned to one thread (never more than nproc) before numpy
# loads, so every run measures the same single-threaded program.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Read when numpy loads.  Whether numpy's huge-page advice is honoured depends
# on the machine's memory state when the process starts, which shifted whole
# runs by up to 20%, so it is off.  The allocator is otherwise left as users
# run the program: page faults of fresh arrays are part of every time.
MEMORY_VARS = {"NUMPY_MADVISE_HUGEPAGE": "0"}
