"""Structural quality proxy for a schedule.

The proxy equates image quality with the total byte size of the model
variants doing the denoising: more (and less quantized) parameters in the
pipeline stand in for higher fidelity, normalized by the best the fleet could
possibly host. It is a scheduling score, not a perceptual image metric; use
it to compare selection methods on one scenario, never to predict MS-SSIM or
any other measured quality.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError
from .scenario import Scenario
from .scheduler import SchedulePlan


@dataclass(frozen=True)
class QualityScore:
    """Selected model bytes, absolute and as a fraction of the fleet total."""

    objective_bytes: int
    normalized: float


def quality(plan: SchedulePlan, scenario: Scenario) -> QualityScore:
    """Score ``plan`` against everything ``scenario`` could offer.

    ``normalized`` is selected bytes over total fleet bytes, hitting 1.0
    exactly when every device is selected.
    """

    scenario_ids = range(len(scenario.devices))  # ids are dense from 0
    missing = [dev_id for dev_id in plan.device_ids if dev_id not in scenario_ids]
    if missing:
        raise ConfigurationError(f"plan references devices not in the scenario: {sorted(missing)}")
    total = scenario.total_model_bytes()
    return QualityScore(
        objective_bytes=plan.objective_bytes,
        normalized=plan.objective_bytes / total if total > 0 else 0.0,
    )
