"""Layered end-to-end benchmark of ShapeSearch; entry point: ``perfbench/run.py``."""
