"""Result records shared by the Fourier and nodal solvers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import SupportSamples


@dataclass
class SolveResult:
    """Outcome of a multistart shape optimization.

    `energy` is the reported J_p = (powered objective)^(1/p); for the minimax
    formulation it is the optimal slack t (the Hausdorff distance estimate).
    `sigma_normalized` is the cross-p comparable value
    ((1/2pi) * powered)^(1/p), equal to `energy` for p = inf.
    """

    samples: SupportSamples
    energy: float
    powered_value: float
    sigma_normalized: float
    p: float
    area: float
    area_residual: float
    max_inclusion_violation: float
    min_convexity_residual: float
    kkt_residual: float
    status: str
    history: list = field(default_factory=list)
    wall_time: float = 0.0
    base_seed: object = 0
    n_starts: int = 0
    best_start: int = -1
    fourier_coefficients: tuple[np.ndarray, np.ndarray] | None = None
    message: str = ""

    @classmethod
    def from_winner(cls, winner, note="", **fields):
        """A result whose solve-tail fields come from a multistart Winner.

        The winner gives `energy`, `kkt_residual`, `status`, `history`,
        `best_start` and `message`, with `note` appended to the message;
        `fields` are the discretization's own.
        """
        result = winner.result
        return cls(
            energy=winner.energy,
            kkt_residual=result.kkt_residual if result is not None else np.inf,
            status=winner.status,
            history=result.history if result is not None else [],
            best_start=winner.start,
            message="; ".join(filter(None, [winner.message, note])),
            **fields,
        )
