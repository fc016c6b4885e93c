"""Benchmark workloads: example configs from scripts/configs with overrides.

Every workload uses the tanh field of amplitude 0.9 from the example
configs.  The workload seed reaches the program only through the CLI's
``--seed`` flag.
"""

# name -> list of (example config file, parameter overrides), run in order
# inside one child process.
WORKLOADS = {
    # Batched positions-only march: ~97 % of the time in
    # observables.evolve_coordinates; N = 10^4 makes 1.6 M-element arrays,
    # larger than L2.  Target of the ensemble-march work.
    "wep-ensemble": [
        ("wep.json", {"n_list": [100, 1000, 10000], "n_trials": 20}),
    ],
    # One dim-1024 trajectory with cotangent momentum: the dense tanh
    # Jacobian (np.diag) dominates run_cycles, and the 8 MB trajectory CSV
    # makes it the only heavy writer.  Target of the matrix-free flow work.
    "flow-cotangent": [
        ("flow.json", {"n_molecules": 128, "dt": 0.005, "n_cycles": 2,
                       "store_stride": 4}),
    ],
    # The unchanged statistics configs: Lipschitz pair sampling, samplers
    # (two 100000x257 sphere arrays set the peak RSS), tail profiles and
    # the gravity sweep.  Target of the streaming-sampler work.
    "stats-suite": [
        ("lipschitz.json", {}),
        ("concentration.json", {}),
        ("sphere.json", {}),
        ("gravity.json", {}),
    ],
}

# Configs run at the seed in their own file instead of the workload seed,
# with the reason printed on every run (run.py's "check" line).  Passing the
# workload seed to lipschitz.json would make the benchmark fail on about half
# of all seeds through a defect of the program, not of the benchmark; drop
# the entry once the tuning is fixed.
OWN_SEED = {
    "lipschitz.json": "its rho0 auto-tuning exits 3 (decomposition tuning "
                      "failed) at seeds 2, 4, 7, 8, 11, 12 and 14 of 0-14, "
                      "an open defect of lipschitz.tune_profile",
}

# Summary flags the CLI reports but does not turn into an exit code.
SUMMARY_FLAGS = {
    "sphere": "all_bounds_met",
    "wep": "monotonic_ok",
    "gravity": "expectations_ok",
}
