import numpy as np
import pytest

from ppvit import SyntheticDataset, Tensor, TrainConfig, build_model, preset, train
from ppvit import tensor as T

# The frozen overfit recipe: micro classifier, 32-sample blob set, full-batch
# steps.  Tuned once (reaches 100% well before the step budget) and reused by
# the harness properties and the acceptance gate.
OVERFIT_DATASET = dict(kind="blobs", num_samples=32, image_size=32,
                       num_classes=4, seed=7)
OVERFIT_TRAIN = dict(lr=2e-3, weight_decay=0.0, warmup_steps=50,
                     total_steps=300, batch_size=32, seed=0)
OVERFIT_MODEL_SEED = 0

_ACCEPTANCE_LINES: list[str] = []


def mean_loss(y: Tensor) -> Tensor:
    """The mean of every value of ``y`` as a [1, 1] loss, from the engine's
    own ops: the flattened output times a constant ``1/size`` column."""
    column = Tensor(np.full((y.size, 1), 1.0 / y.size), dtype=y.dtype)
    return T.matmul(T.reshape(y, (1, -1)), column)


@pytest.fixture
def criterion():
    """Record one acceptance-criterion verdict and assert it."""

    def _record(num: int, passed: bool, detail: str):
        verdict = "PASS" if passed else "FAIL"
        line = f"CRITERION {num}: {verdict} - {detail}"
        _ACCEPTANCE_LINES.append(line)
        print(line)
        assert passed, line

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def overfit_run():
    """One full overfit training run, shared across tests that inspect it."""
    ds = SyntheticDataset(**OVERFIT_DATASET)
    net = build_model(preset("micro", num_classes=4), seed=OVERFIT_MODEL_SEED)
    tc = TrainConfig(**OVERFIT_TRAIN)
    records = train(net, ds, tc)
    return net, ds, tc, records


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)
