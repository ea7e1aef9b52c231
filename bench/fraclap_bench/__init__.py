"""Benchmark harness for fraclap: workloads, independent references and tracing.

Run it through ``bench/run.py``; see ``bench/NOTES.md`` for what each
workload loads and bypasses and which per-layer metric should move which
end-to-end metric.
"""
