"""The perf ledger: five pinned workloads, measured from outside the program.

``python benchmarks/ledger/run.py`` (or ``python -m benchmarks.ledger``) runs
every workload in fresh child processes, checks each run's output, and prints
every end-to-end and per-layer metric by name and unit.  Nothing under
``src/`` is edited: per-layer numbers come from a separate traced run in which
:mod:`benchmarks.ledger.tracer` wraps the public functions at each layer
boundary and removes the wrappers afterwards.  See README.md in this
directory for the workload, metric, bound and interaction tables.
"""
