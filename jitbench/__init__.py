"""Just-in-time reordering benchmark: ``T_reorder + T_analysis(π)`` against
``T_analysis(random)``.  Run it with ``python3 jitbench/run.py``; see
``jitbench/README.md``."""
