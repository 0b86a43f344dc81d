"""Benchmark harness for html_extract; entry point: perfbench/run.py."""
