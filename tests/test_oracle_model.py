"""Unit tests of the pure reference model (repro.oracle.model).

The model is the trusted side of the differential harness, so its own
semantics are pinned exhaustively here — if these are wrong, every
conformance verdict is.
"""
import pytest

from repro.common.config import small_config
from repro.oracle.model import OracleViolation, ReferenceModel
from repro.sim.crash import crash_and_recover
from repro.sim.system import SecureNVMSystem


def test_read_defaults_to_zero():
    assert ReferenceModel().read(123) == 0


def test_last_accepted_write_wins():
    model = ReferenceModel()
    model.write(5, 111)
    model.write(5, 222)
    model.write(9, 333)
    assert model.read(5) == 222
    assert model.read(9) == 333
    assert model.write_counts == {5: 2, 9: 1}


def test_counter_observations_must_strictly_increase():
    model = ReferenceModel()
    model.observe_counter(4, 1)
    model.observe_counter(4, 2)
    model.observe_counter(7, 1)      # other addresses are independent
    with pytest.raises(OracleViolation):
        model.observe_counter(4, 2)  # repeat = OTP reuse
    with pytest.raises(OracleViolation):
        model.observe_counter(4, 1)  # regression


def test_crash_preserves_contents():
    """A crash is not a semantic event: the system's model keeps every
    write the controller accepted, and nothing it did not."""
    system = SecureNVMSystem("steins", small_config())
    system.store(1, flush=True)
    system.store(2)                  # still volatile: never accepted
    blocks = dict(system.model.blocks)
    counts = dict(system.model.write_counts)
    crash_and_recover(system)
    assert system.model.blocks == blocks
    assert system.model.write_counts == counts == {1: 1}
