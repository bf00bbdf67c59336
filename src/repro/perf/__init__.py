"""Performance subsystem: the perf-regression harness.

:mod:`repro.perf.bench_regression` times each flat-buffer backend against
its oracle twin (BDOne, LinearTime, NearLinear and ARW-LT) on seeded
generator graphs, plus the serving layer's repair and async front-end
walls, writes a JSON report, and gates five tracks (LinearTime,
NearLinear, ARW-LT, ServeIncremental, ServeLoad) against a committed
baseline (used by the CI ``perf-smoke`` job).  Run it as
``python -m repro.perf.bench_regression``; the package itself exports
nothing, so ``import repro`` does not load the harness.
"""

from typing import List

__all__: List[str] = []
