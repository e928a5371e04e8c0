"""Input checks of the library that each raise a documented error type:
FormatError for a malformed input, ConfigError for a bad configuration."""

import numpy as np
import pytest

from submodsum.bench import make_collection
from submodsum.data import AuxiliarySet, GroundSet, build_kernel
from submodsum.errors import ConfigError, FormatError
from submodsum.functions import EvalContext, Family, FunctionSpec, evaluate
from submodsum.learning import TrainConfig, TrainingExample, finite_diff_check, init_mixture, make_margin, train
from submodsum.optimize import CompositeObjective, Flavor, flavor_sets


def _example():
    ctx, refs, Q = make_collection(0)
    return TrainingExample(ctx, refs, budget=4, Q=Q)


CASES = {
    "role_tag": (FormatError, "role_tag must be", lambda: AuxiliarySet(["a"], [[1.0]], role_tag="spy")),
    "metric": (ConfigError, "unknown similarity metric",
               lambda: build_kernel(GroundSet(["a"], [[1.0]]), metric="zap")),
    "non_square_kernel": (ConfigError, "must be square", lambda: EvalContext(np.zeros((2, 3)), 1)),
    "n_ground_past_size": (ConfigError, "n_ground out of range", lambda: EvalContext(np.eye(2), 3)),
    "negative_n_ground": (ConfigError, "n_ground out of range", lambda: EvalContext(np.eye(2), -1)),
    "scalar_kernel": (ConfigError, "must be square", lambda: EvalContext(1.0, 1)),
    "zero_d_kernel": (ConfigError, "must be square", lambda: EvalContext(np.array(1.0), 1)),
    "float_n_ground": (ConfigError, "n_ground out of range", lambda: EvalContext(np.eye(2), 2.5)),
    "str_n_ground": (ConfigError, "n_ground out of range", lambda: EvalContext(np.eye(2), "2")),
    "bool_n_ground": (ConfigError, "n_ground out of range", lambda: EvalContext(np.eye(2), True)),
    "mode": (ConfigError, "unknown mode",
             lambda: evaluate(FunctionSpec(Family.SET_COVER), "sideways", EvalContext(np.eye(2), 2), (0,))),
    "update_without_previous": (ConfigError, "requires the previous summary", lambda: flavor_sets(Flavor.UPDATE)),
    "empty_composite": (ConfigError, "at least one component", lambda: CompositeObjective([])),
    "margin": (ConfigError, "unknown margin", lambda: make_margin(_example(), "zap", (0, 1))),
    "zero_step": (ConfigError, "step must be positive",
                  lambda: finite_diff_check(init_mixture(["sc"]), _example(), h=0.0)),
    "no_examples": (ConfigError, "at least one example",
                    lambda: train([], init_mixture(["sc"]), TrainConfig(epochs=1))),
}


@pytest.mark.parametrize("case", list(CASES))
def test_input_check_raises_its_documented_type(case):
    error, message, call = CASES[case]
    with pytest.raises(error, match=message):
        call()


def test_numpy_int_n_ground_is_accepted():
    assert EvalContext(np.eye(2), np.int64(1)).n_ground == 1
