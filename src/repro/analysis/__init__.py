"""Result formatting helpers used by the benchmark harness and examples."""

from repro.analysis.report import format_table

__all__ = ["format_table"]
