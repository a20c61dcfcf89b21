"""The performance benchmark: six workloads, one result schema (see README.md)."""
