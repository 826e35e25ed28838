"""Experiment scale presets.

The paper-scale campaigns (100 flow sets per point, 14-23 load points,
26 topologies × 100 mappings) take hours of CPU; the default preset keeps
every experiment's *structure* while shrinking repetition counts so the
full benchmark suite finishes on a laptop in minutes.  Select with::

    REPRO_SCALE=ci      # smoke scale, seconds (CI default)
    REPRO_SCALE=default # laptop scale, minutes
    REPRO_SCALE=paper   # the paper's full campaign

Every preset records the *same* seeds for overlapping work, so growing the
scale only adds samples — it never reshuffles the ones already run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field


def _mesh_list() -> list[tuple[int, int]]:
    """The paper's 26 Figure 5 topologies, in its x-axis order."""
    return [
        (2, 2), (3, 2), (3, 3), (4, 3), (4, 4), (5, 4), (6, 4), (5, 5),
        (7, 4), (6, 5), (7, 5), (6, 6), (8, 5), (7, 6), (8, 6), (7, 7),
        (9, 6), (8, 7), (9, 7), (8, 8), (10, 7), (9, 8), (10, 8), (9, 9),
        (10, 9), (10, 10),
    ]


@dataclass(frozen=True)
class Scale:
    """One scale preset (see module docstring)."""

    name: str
    #: Figure 4(a): flow counts swept on the 4×4 platform.
    fig4a_flow_counts: tuple[int, ...]
    #: Figure 4(b): flow counts swept on the 8×8 platform.
    fig4b_flow_counts: tuple[int, ...]
    #: flow sets generated per point.
    fig4_sets_per_point: int
    #: Figure 5: topologies and mappings per topology.
    fig5_topologies: tuple[tuple[int, int], ...]
    fig5_mappings: int
    #: didactic simulation: step of the τ1 release-offset sweep (1 = every
    #: phase of τ1's period).
    didactic_offset_step: int
    #: buffer sweep: buffer depths and sets per depth.
    buffer_depths: tuple[int, ...]
    buffer_sets: int
    #: load point for the buffer sweep: heavy enough (on the 4×4 mesh)
    #: that IBN's verdict actually depends on the depth.
    buffer_flow_count: int = 320
    seed: int = field(default=20180319)  # DATE'18 conference date
    #: bound-vs-observed validation sweep: buffer depths simulated and
    #: random synthetic sets per depth (didactic always included).
    validation_buffer_depths: tuple[int, ...] = (2, 10)
    validation_synthetic_sets: int = 2


_PRESETS = {
    "ci": Scale(
        name="ci",
        fig4a_flow_counts=(40, 160, 280, 400),
        fig4b_flow_counts=(80, 240, 400),
        fig4_sets_per_point=5,
        fig5_topologies=((2, 2), (4, 4), (6, 6), (8, 8)),
        fig5_mappings=5,
        didactic_offset_step=20,
        buffer_depths=(2, 16, 100),
        buffer_sets=5,
        validation_buffer_depths=(2, 10),
        validation_synthetic_sets=2,
    ),
    "default": Scale(
        name="default",
        fig4a_flow_counts=(40, 100, 160, 220, 280, 340, 400),
        fig4b_flow_counts=(80, 160, 240, 320, 400, 480),
        fig4_sets_per_point=20,
        fig5_topologies=tuple(_mesh_list()[::2]),
        fig5_mappings=20,
        didactic_offset_step=4,
        buffer_depths=(2, 4, 8, 16, 32, 64, 100),
        buffer_sets=20,
        validation_buffer_depths=(2, 4, 10, 16),
        validation_synthetic_sets=5,
    ),
    "paper": Scale(
        name="paper",
        fig4a_flow_counts=tuple(range(40, 431, 30)),
        fig4b_flow_counts=tuple(range(80, 521, 20)),
        fig4_sets_per_point=100,
        fig5_topologies=tuple(_mesh_list()),
        fig5_mappings=100,
        didactic_offset_step=1,
        buffer_depths=(2, 4, 8, 16, 32, 64, 100),
        buffer_sets=100,
        validation_buffer_depths=(2, 4, 8, 10, 16, 32),
        validation_synthetic_sets=10,
    ),
}


def get_scale(name: str | None = None) -> Scale:
    """Resolve a preset by name, or from ``REPRO_SCALE`` (default "ci").

    >>> get_scale("paper").fig4_sets_per_point
    100
    """
    if name is None:
        name = os.environ.get("REPRO_SCALE", "ci")
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown scale {name!r}; pick one of {sorted(_PRESETS)}"
        ) from None
