"""Test-session set-up shared by tests/ and bench/: one BLAS thread per
process, as the macforge executable runs, set here because pytest loads
this file before any test module imports numpy. A value the environment
already holds is kept."""

from macforge.workers import one_blas_thread

one_blas_thread()
