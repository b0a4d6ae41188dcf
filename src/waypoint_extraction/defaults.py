"""Per-task error-budget defaults and their environment override."""

from __future__ import annotations

import os

from .state_space import _finite_scalar
from .trajfile import TrajectorySchemaError, _number, _read_json

__all__ = ["TASK_ETA_DEFAULTS", "ENV_TASK_DEFAULTS", "load_task_defaults", "resolve_task_eta"]

TASK_ETA_DEFAULTS: dict[str, float] = {
    "lift": 0.005,
    "can": 0.005,
    "square": 0.005,
    "cube-transfer": 0.01,
    "bimanual-insertion": 0.01,
    "screwdriver-handover": 0.01,
    "wiping-table": 0.01,
    "coffee-making": 0.008,
}

# points at a JSON file mapping task name -> eta, replacing the built-in table
ENV_TASK_DEFAULTS = "AWE_TASK_DEFAULTS"


def load_task_defaults() -> dict[str, float]:
    """The task -> eta table, honoring the AWE_TASK_DEFAULTS override. A
    bad file raises the trajfile error a bad metric config file raises,
    naming the file; an eta <= 0 raises ValueError."""
    path = os.environ.get(ENV_TASK_DEFAULTS)
    if not path:
        return dict(TASK_ETA_DEFAULTS)
    data = _read_json(path)
    if not isinstance(data, dict):
        raise TrajectorySchemaError(f"{path}: task defaults must be a JSON object of task -> eta")
    return {task: _finite_scalar(_number(eta, f"{path}.{task}"), f"{path}.{task}", positive=True)
            for task, eta in data.items()}


def resolve_task_eta(task: str) -> float:
    table = load_task_defaults()
    try:
        return table[task]
    except KeyError:
        known = ", ".join(sorted(table))
        raise ValueError(f"unknown task {task!r}; known tasks: {known}") from None
