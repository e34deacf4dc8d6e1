"""The benchmark's span tracer (perfbench/tracer.py) still finds the library
functions it wraps, so a refactor that moves them fails here rather than in
a traced benchmark run."""

import sys
from pathlib import Path

import numpy as np

import ppvit.model as M
from ppvit import Tensor, build_model, preset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_forward_records_conv_and_pool_spans():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    net = build_model(preset("nano", num_classes=4), seed=0)
    x = Tensor(np.random.default_rng(0).uniform(size=(1, 3, 32, 32)).astype(np.float32))
    spans = tracer.Tracer()
    spans.install()
    try:
        M.forward_classify(net, x)
    finally:
        spans.uninstall()
    names = {span[0] for span in spans.spans}
    assert {"tensor.conv2d_dw", "tensor.conv2d_dense", "tensor.pool"} <= names, names
    assert tracer.find_wrappers() == []
