"""Text visualizations: timeline rendering (Figure 1/10)."""

from .timeline_ascii import render_comparison, render_timeline

__all__ = ["render_comparison", "render_timeline"]
