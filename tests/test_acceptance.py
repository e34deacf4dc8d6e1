"""Acceptance gate: one test per headline criterion, each printing a
``CRITERION n: PASS/FAIL`` line (collected in the terminal summary)."""

import pathlib

import numpy as np

import oracles
from conftest import OVERFIT_MODEL_SEED
from ppvit import (Tensor, build_model, count_flops, count_params, forward_features,
                   gradcheck_suite, no_grad, preset, squeeze_ratio, train)
from ppvit.attention import PMHSAConfig, pmhsa_forward
from ppvit.complexity import (REFERENCE_FLOPS, REFERENCE_PARAMS, _conv_out)
from ppvit.model import _Init, _init_attn


def test_criterion_1_parameter_counts(criterion):
    """Analytic count equals the built model exactly; within 5% of targets."""
    details, ok = [], True
    for name in REFERENCE_PARAMS:
        cfg = preset(name)
        analytic = count_params(cfg).total_params
        built = build_model(cfg).arena.data.size
        dev = 100.0 * (analytic - REFERENCE_PARAMS[name]) / REFERENCE_PARAMS[name]
        ok &= analytic == built and abs(dev) <= 5.0
        details.append(f"{name} {analytic:,} ({dev:+.2f}%, "
                       f"built {'==' if analytic == built else '!='} analytic)")
    criterion(1, ok, "; ".join(details))


def test_criterion_2_flop_counts(criterion):
    """FLOPs at 224x224 within 10% of targets, with per-layer breakdown."""
    details, ok = [], True
    for name in REFERENCE_PARAMS:
        rep = count_flops(preset(name), (224, 224))
        dev = 100.0 * (rep.total_flops - REFERENCE_FLOPS[name]) / REFERENCE_FLOPS[name]
        ok &= abs(dev) <= 10.0
        # the breakdown must actually itemize blocks, not just totals
        csv = rep.to_csv(per_layer=True)
        ok &= "blocks.0.attn" in csv and sum(
            l.flops for l in rep.layers) == rep.total_flops
        details.append(f"{name} {rep.total_flops / 1e9:.2f}G ({dev:+.2f}%)")
    criterion(2, ok, "; ".join(details) + "; per-layer breakdown itemized")


def test_criterion_3_squeeze_column(criterion):
    expected = {(24,): 576, (16,): 256, (12,): 144, (8,): 64,
                (12, 24): 115, (12, 16, 20, 24): 66}
    got = {r: round(squeeze_ratio(r).analytic_ratio) for r in expected}
    four = squeeze_ratio((12, 16, 20, 24)).analytic_ratio
    ok = got == expected and abs(four - 66.3) < 0.05
    criterion(3, ok, f"rounded column {list(got.values())}, "
                     f"four-level analytic {four:.4f} (target 66.3)")


def test_criterion_4_feature_pyramid_geometry(criterion):
    # measured: run a real 224x224 image through the smallest preset
    net = build_model(preset("micro", num_classes=4), seed=0)
    x = Tensor(np.random.default_rng(0)
               .uniform(size=(1, 224, 224, 3)).astype(np.float32))
    with no_grad():
        pyr = forward_features(net, x)
    measured = [m.shape[1:3] for m in pyr]
    ok = measured == [(56, 56), (28, 28), (14, 14), (7, 7)]
    ok &= [(m.shape[0], m.shape[3]) for m in pyr] == [(1, 8), (1, 16), (1, 24), (1, 32)]

    # closed form: every preset shares the stem/transition geometry
    grids, extent = [], _conv_out(224, 7, 4, 3)
    grids.append(extent)
    for _ in range(3):
        extent = _conv_out(extent, 3, 2, 1)
        grids.append(extent)
    ok &= grids == [56, 28, 14, 7]
    criterion(4, ok, f"micro forward at 224 gives {measured}; "
                     f"closed-form ladder {grids}")


def test_criterion_5_gradient_checks(criterion):
    details, ok = [], True
    for scope in ("ops", "block", "model"):
        cases = gradcheck_suite(scope)
        worst = max(c.max_rel_err for c in cases)
        ok &= all(c.passed for c in cases) and worst < 1e-4
        details.append(f"{scope} {len(cases)} cases, worst {worst:.2e}")
    criterion(5, ok, "; ".join(details) + " (tol 1e-4, f64 central differences)")


def test_criterion_6_vanilla_equivalence(criterion):
    """Ratio {1} with the position refinement off must reproduce ordinary
    softmax attention on randomized desk-scale shapes."""
    rng = np.random.default_rng(42)
    worst, ok = 0.0, True
    for trial in range(6):
        heads = int(rng.integers(1, 4))
        c = heads * int(rng.integers(2, 5)) * 2
        b, h, w = int(rng.integers(1, 3)), int(rng.integers(2, 7)), \
            int(rng.integers(2, 7))
        cfg = PMHSAConfig(dim=c, heads=heads, pool_ratios=(1,), use_rpe=False)
        state = _init_attn(_Init(trial, np.float64), cfg)
        x = rng.normal(size=(b, h * w, c))
        out = pmhsa_forward(Tensor(x.reshape(b, h, w, c), dtype=np.float64), state)
        ref = oracles.vanilla_mhsa(
            x, state.q.weight.data, state.q.bias.data,
            state.k.weight.data, state.k.bias.data,
            state.v.weight.data, state.v.bias.data,
            state.o.weight.data, state.o.bias.data,
            state.pool_ln.gamma.data, state.pool_ln.beta.data, heads)
        err = float(np.abs(out.data.reshape(ref.shape) - ref).max())
        worst = max(worst, err)
        ok &= err < 1e-5
    criterion(6, ok, f"6 randomized shapes, max abs deviation {worst:.2e} "
                     f"(tol 1e-5)")


def test_criterion_7_overfit_and_ablations(criterion, overfit_run):
    net, ds, tc, records = overfit_run
    final_acc = records[-1].train_accuracy
    first_95 = next((r.step for r in records if r.train_accuracy >= 0.95), None)
    ok = final_acc >= 0.95 and tc.total_steps <= 500 and first_95 is not None

    # bitwise seed reproducibility of the whole trajectory
    net2 = build_model(preset("micro", num_classes=4), seed=OVERFIT_MODEL_SEED)
    records2 = train(net2, ds, tc)
    ok &= records2 == records

    arms = {"max_pool": {"pool_mode": "max"},
            "no_rpe": {"use_rpe": False},
            "mlp_ffn": {"ffn_kind": "mlp"},
            "fixed_sizes": {"pool_sizes": (1, 2, 3, 6)}}
    arm_accs = {}
    for arm, overrides in arms.items():
        arm_net = build_model(preset("micro", num_classes=4, **overrides),
                              seed=OVERFIT_MODEL_SEED)
        arm_records = train(arm_net, ds, tc)  # DivergenceError would fail here
        arm_accs[arm] = arm_records[-1].train_accuracy
    ok &= all(np.isfinite(list(arm_accs.values())))

    arm_txt = ", ".join(f"{k} {v:.0%}" for k, v in arm_accs.items())
    criterion(7, ok, f"final accuracy {final_acc:.0%} (>=95% at step "
                     f"{first_95}/{tc.total_steps}), rerun identical, "
                     f"ablations completed: {arm_txt}")


def test_criterion_8_large_scale_results_out_of_scope(criterion):
    """No desk-scale path to the published-scale benchmarks exists; the
    limitation must be stated rather than silently skipped."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text() if readme.exists() else ""
    named = [s for s in ("ImageNet", "ADE20K", "COCO", "FPS") if s in text]
    ok = len(named) == 4 and "not reproducible" in text
    criterion(8, ok,
              "ImageNet top-1, ADE20K mIoU, COCO AP, and FPS benchmarks "
              "require large-scale data and GPU budgets; explicitly "
              f"documented as out of scope (README names {named})")
