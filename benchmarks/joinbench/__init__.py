"""joinbench: end-to-end and per-layer benchmark of the serial, staged and
live executors (see README.md)."""
