"""Result formatting helpers used by the benchmark harness and examples."""
