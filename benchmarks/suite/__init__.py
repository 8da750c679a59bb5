"""The repository benchmark: five workloads, host-time end-to-end
metrics and a traced per-layer run.  See README.md and BENCHMARK.json;
run it with ``python -m benchmarks.suite run``."""
