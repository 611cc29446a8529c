"""The perf gate: wall-clock ratio cases over one paired-median runner.

Everything lives in :mod:`repro.perf.bench` (``python -m
repro.perf.bench``); this package deliberately imports nothing, so
running that module as ``__main__`` executes it once.
"""
