import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from quadnmpc.dynamics import QuadrotorParams
from quadnmpc.sim import hover_scenario


@pytest.fixture
def params():
    return QuadrotorParams()


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def random_unit_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def random_state(rng, pos_scale=1.0, vel_scale=1.0, rate_scale=2.0):
    xi = np.empty(13)
    xi[0:3] = rng.uniform(-pos_scale, pos_scale, 3)
    xi[3:7] = random_unit_quat(rng)
    xi[7:10] = rng.uniform(-vel_scale, vel_scale, 3)
    xi[10:13] = rng.uniform(-rate_scale, rate_scale, 3)
    return xi


def hover_window(cfg, p=(0.0, 0.0, 0.0)):
    """The constant reference window of a hover at ``p`` over ``cfg``'s horizon."""
    return hover_scenario(cfg.params, p).window(0.0, cfg.N, cfg.dt)
