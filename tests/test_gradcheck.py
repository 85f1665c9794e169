import numpy as np
import pytest

import pointseg.gradcheck as gc
import pointseg.grids


def test_component_suites_pass_at_reduced_trials():
    for report in gc.run_components(seed=0, trials=5):
        assert report.passed, f"{report.name}: {report.worst_rel_err:.3e}"
        assert report.instances >= 5
        assert report.compared > 0


def test_end_to_end_suites_pass_single_trial():
    reports = gc.run_end_to_end(seed=0, trials=1)
    names = {r.name for r in reports}
    assert names == {
        "end_to_end[logit-field,pce]",
        "end_to_end[logit-field,pce+ms]",
        "end_to_end[logit-field,pce+cv]",
        "end_to_end[conv-ed,pce]",
        "end_to_end[conv-ed,pce+ms]",
        "end_to_end[conv-ed,pce+cv]",
    }
    for report in reports:
        assert report.passed, f"{report.name}: {report.worst_rel_err:.3e}"


def test_run_all_aggregates_and_times():
    report = gc.run_all(seed=1, trials=3, end_to_end_trials=1)
    assert report.passed
    assert report.seconds > 0
    table = report.format_table()
    assert "overall: PASS" in table
    assert "partial_cross_entropy" in table


def test_run_all_checks_no_probe(monkeypatch):
    # A finite-difference probe is a validated logit field moved by one step,
    # so it skips the grid checks: only the drawn instances are checked.
    calls = {"drawn": 0, "probe": 0}
    probing = []
    as_grid, finite_diff_grad = pointseg.grids.as_grid, gc.finite_diff_grad

    def counting(*args, **kwargs):
        calls["probe" if probing else "drawn"] += 1
        return as_grid(*args, **kwargs)

    def differencing(*args, **kwargs):
        probing.append(1)
        try:
            return finite_diff_grad(*args, **kwargs)
        finally:
            probing.pop()

    monkeypatch.setattr(pointseg.grids, "as_grid", counting)
    monkeypatch.setattr(gc, "finite_diff_grad", differencing)
    assert gc.run_all(seed=1, trials=3, end_to_end_trials=1).passed
    assert calls["drawn"] > 0
    assert calls["probe"] == 0


def test_detects_a_corrupted_gradient(monkeypatch):
    real = gc.tv_term

    def broken(pred, smooth_value=False):
        value, grad = real(pred, smooth_value)
        return value, grad * 1.01
    monkeypatch.setattr(gc, "tv_term", broken)
    report = gc.check_tv(trials=3, seed=0)
    assert not report.passed
    assert report.worst_rel_err > 1e-3
    assert report.worst_seed >= 0
    assert report.worst_coordinate >= 0


def test_fd_noise_floor_scales_with_magnitude():
    assert gc.fd_noise_floor(0.0) == 0.0
    small, large = gc.fd_noise_floor(1.0), gc.fd_noise_floor(1e6)
    assert large == pytest.approx(small * 1e6)
    # An objective of size 1 checked with the default step cannot resolve
    # gradient components much below this, which must stay under the
    # comparison tolerance for unit-scale analytic values.
    assert small < 1e-7


def test_reports_carry_worst_location():
    report = gc.check_pce(trials=3, seed=0)
    assert report.passed
    assert report.worst_seed >= -1
    assert isinstance(report.worst_coordinate, int)


def test_complex_step_matches_real_forward():
    # The complex-step oracle must agree with the real-path loss when fed
    # real inputs, otherwise its derivatives verify a different function.
    rng = np.random.default_rng(0)
    from pointseg.grids import LogitField
    from pointseg.losses import LossSettings, PairingPlan, PointAnnotation, total_loss

    K, H, W = 2, 4, 4
    logits = [rng.normal(size=(K, H, W)) for _ in range(2)]
    images = [gc.Image(rng.random((H, W))) for _ in range(2)]
    anns = [
        PointAnnotation(((0, 0, 0), (1, 1, 1)), K),
        PointAnnotation(((2, 2, 0), (3, 3, 1)), K),
    ]
    plan = PairingPlan({(0, 0): 1, (0, 1): 1, (1, 0): 0, (1, 1): 0})
    settings = LossSettings(tau=1.0)
    value = gc._cx_objective(
        "pce+cv", [z.astype(complex) for z in logits], images, anns, plan, settings
    )
    breakdown = total_loss(
        "pce+cv", images, [LogitField(z) for z in logits], anns, plan, settings
    )
    # TV enters the oracle through its smoothed surrogate; its weight is tiny.
    assert abs(value.real - breakdown.total) <= settings.mu * 1e-3 + 1e-12
