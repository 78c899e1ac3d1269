"""Installs the benchmark's span wrappers in every interpreter of a traced run.

This directory is put on ``PYTHONPATH`` only for traced runs, and the
wrappers are installed only when ``PERFBENCH_TRACE_DIR`` is set.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import _perfbench_tracer

    _perfbench_tracer.install()
