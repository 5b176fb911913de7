"""Shared fixtures."""

import numpy as np
import pytest

from relaxqp import engine


@pytest.fixture()
def inject_relaxation_fault(monkeypatch):
    """Returns a function that, once called, puts a sign error into the
    relaxation step of every later solve in the test: each iteration uses
    w = g*zt - (1-g)*z_k instead of g*zt + (1-g)*z_k.  Reference solutions
    must be computed before it is called."""
    iterate_once = engine.iterate_once

    def faulty(state, prob, cfg):
        z_k, y_k, g, r = state.z, state.y, state.Gamma, state.R
        iterate_once(state, prob, cfg)
        w = g * state.z_tilde - (1.0 - g) * z_k
        state.z = np.clip(w + y_k / r, prob.l, prob.u)
        state.y = y_k + r * (w - state.z)
        return state

    return lambda: monkeypatch.setattr(engine, "iterate_once", faulty)
