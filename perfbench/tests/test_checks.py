"""Each correctness check passes the program's real output and rejects a
deliberately perturbed copy of it."""

import copy
import json

import numpy as np
import pytest

import checks
from stablespline import cli
from stablespline.benchmark import RunResult, summarize
from stablespline.fileio import write_document, write_runs_csv

ROWS = [(0, 80.0, 90.0), (1, 70.0, 85.0), (3, 85.0, 88.0), (4, 60.0, 81.0)]


def results():
    return [RunResult(i, ml, gs, sigma2=0.01 * (i + 1), beta_hat=0.8) for i, ml, gs in ROWS]


def test_run_fits():
    assert checks.check_run_fits(ROWS) == []
    assert checks.check_run_fits(ROWS + [(5, 80.0, 100.5)])
    assert checks.check_run_fits(ROWS + [(5, float("nan"), 80.0)])


def test_claim():
    assert checks.check_claim(ROWS) == []
    swapped = [(i, gs, ml) for i, ml, gs in ROWS]
    assert len(checks.check_claim(swapped)) == 2
    two_losses = ROWS[:2] + [(3, 89.0, 88.0), (4, 82.0, 81.0)]
    assert any("win rate" in e for e in checks.check_claim(two_losses))


def test_accuracy():
    assert checks.check_accuracy(ROWS) == []
    assert checks.check_accuracy([(0, 70.0, 79.0), (1, 70.0, 80.5)])


def test_summary_recomputed_from_rows():
    summary = summarize(results())
    assert checks.check_summary(ROWS, summary) == []
    bad = copy.deepcopy(summary)
    bad["fit_ssgs"]["median"] += 1e-6
    assert checks.check_summary(ROWS, bad)
    bad = copy.deepcopy(summary)
    bad["win_rate_ssgs"] = 0.5
    assert checks.check_summary(ROWS, bad)


def test_written_files_parse_back(tmp_path):
    rs = results()
    summary = summarize(rs)
    csv_path, doc_path = tmp_path / "runs.csv", tmp_path / "runs.summary.json"
    summary.update(n_failed=0)
    write_runs_csv(csv_path, rs)
    write_document(doc_path, summary)
    assert checks.check_written(csv_path, doc_path, rs, summary) == []

    text = csv_path.read_text()
    csv_path.write_text(text.replace("85", "85.000000001", 1))
    assert checks.check_written(csv_path, doc_path, rs, summary)
    write_runs_csv(csv_path, rs)

    doc = json.loads(doc_path.read_text())
    doc["fit_ssml"]["q3"] *= 1.0 + 1e-15
    doc_path.write_text(json.dumps(doc))
    assert checks.check_written(csv_path, doc_path, rs, summary)


def test_failures_must_be_the_guard():
    guard = "benchmark.impulse_response: response sample 16 exceeds 1e+06 before scaling"
    assert checks.check_failures([guard]) == []
    assert checks.check_failures([guard, "ssml.posterior_moments: not positive definite"])


@pytest.fixture(scope="module")
def identified(tmp_path_factory):
    d = tmp_path_factory.mktemp("identify")
    out = {}
    for key, kind, seed in (("wn", "wn", 7), ("lp", "lp", 1), ("cancel", "wn", 18016)):
        data, truth, result = d / f"{key}.csv", d / f"{key}.truth.json", d / f"{key}.json"
        assert cli.main(["simulate", "--N", "500", "--n", "50", "--input-kind", kind,
                         "--seed", str(seed), "--output", str(data), "--truth", str(truth)]) == 0
        assert cli.main(["identify", "--estimator", "ssml", "--n", "50", "--input", str(data),
                         "--truth", str(truth), "--output", str(result)]) == 0
        out[key] = (data, truth, json.loads(result.read_text()))
    return out


def test_identify_passes_on_real_output(identified):
    data, truth, doc = identified["wn"]
    assert checks.check_identify(data, truth, doc) == []


@pytest.mark.parametrize("perturb, expect", [
    (lambda d: d["ssml"]["g_hat"].__setitem__(0, d["ssml"]["g_hat"][0] * 1.001), "posterior mean"),
    (lambda d: d["ssml"].__setitem__("objective", d["ssml"]["objective"] + 1e-3), "dense value"),
    (lambda d: d["hyperparameters"].__setitem__("sigma2", d["hyperparameters"]["sigma2"] * 1.01), "least-squares"),
    (lambda d: d["fit"].__setitem__("ssml", d["fit"]["ssml"] + 1e-6), "FIT"),
])
def test_identify_rejects_perturbed_output(identified, perturb, expect):
    data, truth, doc = identified["wn"]
    bad = copy.deepcopy(doc)
    perturb(bad)
    errors = checks.check_identify(data, truth, bad)
    assert errors and any(expect in e for e in errors)


def test_objective_near_zero(identified):
    """Simulate seed 18016: log det S and y'S^{-1}y nearly cancel, so the
    objective is close to 0 and its tolerance follows the two terms."""
    data, truth, doc = identified["cancel"]
    assert abs(doc["ssml"]["objective"]) < 1.0
    assert checks.check_identify(data, truth, doc) == []
    bad = copy.deepcopy(doc)
    bad["ssml"]["objective"] += 1e-4
    assert any("dense value" in e for e in checks.check_identify(data, truth, bad))


def test_grid_rejects_a_worse_reported_optimum(identified):
    """Move (lambda, beta) off the optimum and report the true objective
    there: every value is consistent, but the grid finds a better point."""
    data, truth, doc = identified["wn"]
    u, y = checks.load_dataset(data)
    U = checks.regressor(u, 50)
    bad = copy.deepcopy(doc)
    h = bad["hyperparameters"]
    h["beta"], h["lambda"] = 0.3, h["lambda"] * 50.0
    m = checks.Marglik(U, y, h["sigma2"])
    bad["ssml"]["objective"] = float(m.values(h["beta"], [h["lambda"]])[0])
    errors = checks.check_identify(data, truth, bad)
    assert any(e.startswith(checks.SEARCH_MISSED) for e in errors)


def test_search_miss_dataset(identified):
    """Low-pass simulate seed 1: its optimum lies beyond the lambda span the
    search scans, and the program's answer fails only the grid check."""
    data, truth, doc = identified["lp"]
    errors = checks.check_identify(data, truth, doc)
    assert errors and all(e.startswith(checks.SEARCH_MISSED) for e in errors)


def test_marglik_matches_dense_objective(identified):
    data, _, doc = identified["lp"]
    u, y = checks.load_dataset(data)
    U = checks.regressor(u, 50)
    s2, lam, beta = 0.03, 2.0, 0.7
    S = lam * U @ checks.first_order_kernel(beta, 50) @ U.T + s2 * np.eye(u.size)
    dense = np.linalg.slogdet(S)[1] + y @ np.linalg.solve(S, y)
    assert checks.Marglik(U, y, s2).values(beta, [lam])[0] == pytest.approx(dense, rel=1e-9)


def test_repeat():
    doc = {"ssml": {"g_hat": [1.0, 2.0]}, "fit": {"ssml": 80.0}}
    assert checks.check_repeat(doc, copy.deepcopy(doc)) == []
    assert checks.check_repeat(doc, {"ssml": {"g_hat": [1.0, 2.1]}, "fit": {"ssml": 80.0}})
    assert checks.check_repeat(doc, {"ssml": {"g_hat": [1.0, 2.0]}, "fit": {"ssml": 80.1}})
