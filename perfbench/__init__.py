"""End-to-end and per-layer benchmark of spherelab (entry point: run.py)."""
