"""Detectability analysis for labeled weighted automata over (Q^k, +)."""

from .epset import (
    EPSet,
    eps_intersect,
    eps_meets,
    eps_min_abs_witness,
    eps_partition,
    eps_reflect,
    eps_shift,
)
from .epl import EplAnswer, has_path_with_weight
from .model import (
    StructureReport,
    ValidationError,
    WeightedAutomaton,
    instantaneous_closure,
    normalize,
    scale_to_integers,
    scale_weights,
    structure_report,
    validate,
)
from .selfcomp import SelfComposition, build_self_composition, check_sd
from .estimator import (
    EstimatorAutomaton,
    build_detector,
    build_observer,
    estimate,
    successor_cells,
)
from .verify import AnalysisResult, check_all, check_spd, check_wd, check_wpd
from .verdict import Verdict
from .corpus import (
    Fixture,
    load_fixture,
    random_automaton,
    subset_sum_automaton,
)

__version__ = "0.1.0"
