"""A NaN gap fails its check: each check folds its gaps with a reduction
that keeps a NaN, where Python's max(0.0, nan) returns 0.0 and passes it."""

import math
from types import SimpleNamespace

import numpy as np

import ecsim.verify as verify


def test_nan_oracle_block_fails_the_oracle_check(monkeypatch):
    good = verify.oracle_block

    def nan_at_five(params, N):
        if N == 5:
            return SimpleNamespace(matrix=np.full((N + 1, N + 1), np.nan))
        return good(params, N)

    monkeypatch.setattr(verify, "oracle_block", nan_at_five)
    result = verify.check_oracle_agreement(20)
    assert math.isnan(result.measured) and not result.passed


def test_nan_twirl_fails_idempotence(monkeypatch):
    monkeypatch.setattr(verify, "twirl", lambda rho: SimpleNamespace(entries=np.full((6, 6), np.nan)))
    result = verify.check_twirl_idempotent()
    assert math.isnan(result.measured) and not result.passed


def test_nan_fidelity_fails_monotonicity(monkeypatch):
    fidelities = (math.nan, 0.9, 0.95)
    monkeypatch.setattr(
        verify, "approximation_quality", lambda pumps, scale: [SimpleNamespace(fidelity=f) for f in fidelities]
    )
    result = verify.check_squeezing_monotone()
    assert math.isnan(result.measured) and not result.passed


def test_negative_gaps_read_zero(monkeypatch):
    # fidelities that rise give negative gaps; the check reports 0.0 as before
    monkeypatch.setattr(
        verify, "approximation_quality", lambda pumps, scale: [SimpleNamespace(fidelity=f) for f in (0.8, 0.9)]
    )
    assert verify.check_squeezing_monotone().measured == 0.0
