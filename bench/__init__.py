"""Repository benchmark (see README.md; entry point: bench/run.py)."""
