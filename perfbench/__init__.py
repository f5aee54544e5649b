"""Benchmark harness for the iot command line; see run.py and NOTES.md."""
