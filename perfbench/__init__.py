"""Contended-regime benchmark for the chrono-sim engine.

``run.py`` is the entry point; ``workloads.py`` holds the three
contended workloads (inputs, set-up, stepping, output checks) and
``tracing.py`` the span recorder that splits a traced run by layer.
"""
