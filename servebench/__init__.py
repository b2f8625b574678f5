"""Serving benchmark for the plan-request path (see WORKLOADS.md)."""
