"""Types shared by the workloads and the worker."""

from dataclasses import dataclass

__all__ = ["Incorrect", "Op"]


class Incorrect(Exception):
    """An output contradicts an independent check of what it must be."""


@dataclass(frozen=True)
class Op:
    """One timed operation: `run()` returns the output that the workload judges."""

    label: str
    run: object
    subject: object = None
