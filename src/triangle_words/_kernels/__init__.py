"""The hot kernels, in plain Python (``pure``)."""

from . import pure as backend

BACKEND = "pure"

__all__ = ["backend", "BACKEND"]
