"""Batch-mode scheduling plane: periodic rounds over a pending buffer."""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {"simulator": ("BatchSimulator",)})
