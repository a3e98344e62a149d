"""The end-to-end benchmark's own code (see ``benchmarks/e2e/README.md``).

``stats`` and ``workloads`` are imported by every run; ``probe`` only by
a traced run, so an untraced run measures the program with none of the
benchmark's wrappers even defined.
"""
