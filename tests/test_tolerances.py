import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

import gatecert
from gatecert.certify import certify, classical_fidelity
from gatecert.channel import Channel
from gatecert.core import GateSpec
from gatecert.tolerances import TOL, Tolerances


def test_every_tolerance_is_read_by_the_package():
    # deleting a check deletes its tolerance too
    package = Path(gatecert.__file__).parent
    source = "\n".join(path.read_text() for path in package.glob("*.py") if path.name != "tolerances.py")
    names = [field.name for field in dataclasses.fields(Tolerances)]
    unread = [name for name in names if not re.search(rf"\bTOL\.{name}\b", source)]
    assert not unread, f"Tolerances fields read nowhere in gatecert: {unread}"


def test_accepted_inputs_keep_every_transfer_probability_in_range():
    # each probability is at most (1 + unitarity)(1 + kraus_trace_preserving),
    # with room to spare for rounding
    bound = (1.0 + TOL.unitarity) * (1.0 + TOL.kraus_trace_preserving) - 1.0
    assert bound <= 0.9 * TOL.probability_slack


@pytest.mark.parametrize("basis", ["z", "x"])
def test_a_gate_and_a_channel_at_their_tolerances_certify(basis):
    # the worst inputs either check lets through: u^dag u grows the input the
    # sweep reads first (|00> or |++>) by nearly the unitarity tolerance, and
    # sum K^dag K is the identity scaled by nearly the completeness tolerance
    s = 0.99 * TOL.unitarity
    c = np.sqrt(1.0 + s) - 1.0
    u = np.eye(4) + c * (np.diag([1.0, 0.0, 0.0, 0.0]) if basis == "z" else np.ones((4, 4)) / 4)
    gate = GateSpec(2, u)
    channel = Channel(2, np.sqrt(1.0 + 0.99 * TOL.kraus_trace_preserving) * np.eye(4)[np.newaxis])
    probabilities, _ = classical_fidelity(channel, gate, basis)
    assert probabilities[0] == 1.0
    certify(channel, gate)
