"""Result analysis: performance profiles and table rendering."""

from .perfprofile import ProfileCurve, performance_profile
from .tables import fmt, geomean, render_table, save_text

__all__ = [
    "ProfileCurve",
    "performance_profile",
    "fmt",
    "geomean",
    "render_table",
    "save_text",
]
