"""Benchmark-harness utilities (timing, tables, scaling fits)."""

from repro._lazy import namespace

__getattr__, __all__ = namespace(__name__, {
    "repro.bench.harness": "TableReporter fit_loglog_slope time_callable",
})
