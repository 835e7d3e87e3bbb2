"""Experiment harness regenerating every table and figure in the paper
(see DESIGN.md section 4 for the experiment index)."""

from .harness import RunResult  # noqa: F401
from .configs import (  # noqa: F401
    all_opts_for,
    banking_stack,
    fusion_stack,
    localization_stack,
    tiling_stack,
)
from .reporting import format_table, normalize  # noqa: F401
from .regression import check_throughput, render_check  # noqa: F401
