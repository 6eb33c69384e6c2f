"""Benchmark harness for shallowlight: workloads, tree checks and tracing.

Run it with `python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>` from the repository root; `BENCHMARK.json`
at the root names the workloads and metrics.
"""
