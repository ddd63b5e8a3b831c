import os
from fractions import Fraction
from pathlib import Path

import pytest

import wadet
from wadet.model import validate

# the tests' subprocesses (python -m wadet.cli, python -O -c ...) import the
# same wadet as the tests, also when pytest alone puts src on the path
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(wadet.__file__).parent.parent), os.environ.get("PYTHONPATH")]))


def A1_description():
    # five states, two indistinguishable branches, silent self-loops of weight 1
    return {
        "k": 1,
        "states": ["q0", "q1", "q2", "q3", "q4"],
        "initial": {"q0": [0]},
        "events": {"u": None, "a": "rho", "b": "rho"},
        "transitions": [
            ("q0", "a", "q1", [1]),
            ("q0", "a", "q2", [1]),
            ("q1", "u", "q1", [1]),
            ("q2", "u", "q2", [1]),
            ("q1", "b", "q3", [2]),
            ("q2", "b", "q3", [1]),
            ("q3", "u", "q4", [1]),
            ("q4", "a", "q4", [1]),
        ],
    }


def A0_description():
    # silent fan with a silent cycle; both observable branches loop forever
    return {
        "k": 1,
        "states": ["q0", "q1", "q2", "q3", "q4"],
        "initial": {"q0": [0]},
        "events": {"u": None, "a": "a"},
        "transitions": [
            ("q0", "u", "q1", [10]),
            ("q0", "u", "q2", [1]),
            ("q2", "u", "q2", [1]),
            ("q1", "a", "q3", [1]),
            ("q2", "a", "q4", [1]),
            ("q3", "a", "q3", [1]),
            ("q4", "a", "q4", [1]),
        ],
    }


@pytest.fixture
def aut_a1():
    return validate(A1_description())


@pytest.fixture
def aut_a0():
    return validate(A0_description())
