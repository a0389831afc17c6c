"""DMD reconstruction and short-time forecasting for finite-element
snapshots from adaptive meshes, via L2-projection onto a reference mesh."""

__version__ = "0.1.0"
