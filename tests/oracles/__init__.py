"""Equivalence oracles: the reference paths the library's engine replaced.

An optimised exchange must be indistinguishable from the naive one under
every adversary.  The library keeps one engine path; the naive ones live
here, and the tests run both on the same seeds and compare.

* :mod:`oracles.feedback` — Figure 1 and the parallel merge one
  ``execute_round`` per repetition, the merge's historical full-frame wire
  encoding, and the per-draw hop sampler.
* :mod:`oracles.fame` — f-AME with dense, ``Sleep``-padded rounds on top of
  those feedback oracles.

The test suite imports this package with ``tests/`` on ``sys.path`` (pytest
puts it there); ``benchmarks/bench_feedback.py`` adds it itself.
"""
