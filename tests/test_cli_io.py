import csv
import json
import math

import numpy as np
import pytest

import blockfit as bf
from blockfit import FamilySpec, engine
from blockfit.cli import main
from blockfit.engine import MixtureParams
from blockfit.families import PoissonParams, PoissonRegParams
from blockfit.graph import EdgeCovariates
from blockfit.io import (
    fit_from_jsonable,
    fit_to_jsonable,
    load_graph,
    read_edge_csv,
    read_fit_json,
    write_fit_json,
)
from blockfit.predict import predict_edges

POISSON = FamilySpec("poisson")


def write_edges_csv(path, graph):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["i", "j", "value"])
        for i, j in graph.pair_index():
            w.writerow([i, j, int(graph.values[i, j])])


def write_cov_csv(path, cov, graph):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["i", "j"] + [f"y{d + 1}" for d in range(cov.p)])
        for i, j in graph.pair_index():
            w.writerow([i, j] + [repr(float(v)) for v in cov.y[i, j]])


@pytest.fixture
def two_block_graph(tmp_path):
    params = MixtureParams(alpha=np.array([0.5, 0.5]),
                           theta=PoissonParams(lam=np.array([[6.0, 0.5], [0.5, 3.0]])))
    g, _ = bf.sample_graph(params, 30, False, POISSON, seed=0)
    edges = tmp_path / "edges.csv"
    write_edges_csv(edges, g)
    return g, edges


def test_edge_csv_round_trip(tmp_path, two_block_graph):
    g, edges = two_block_graph
    g2 = load_graph(edges)
    assert g2.n == g.n
    assert np.array_equal(g2.values, g.values)


def test_fit_json_round_trip_bit_identical(two_block_graph, tmp_path):
    g, _ = two_block_graph
    fr = bf.fit(g, POISSON, 2, seed=1, restarts=2)
    fr.icl = bf.icl(g, POISSON, fr)
    path = tmp_path / "fit.json"
    write_fit_json(path, fr, POISSON)
    fr2, spec2, _ = read_fit_json(path)
    assert spec2.kind == "poisson"
    p1 = predict_edges(fr, g, spec=POISSON)
    p2 = predict_edges(fr2, g, spec=spec2)
    assert np.array_equal(p1, p2)  # bit-identical predictions
    assert fr2.icl == fr.icl
    data = fit_to_jsonable(fr, POISSON)
    for key in ("alpha", "theta", "tau", "J_trajectory", "entropy",
                "map_assignment", "converged"):
        assert key in data



def test_fit_json_is_strict_and_writes_a_nonfinite_icl_as_null(two_block_graph, tmp_path):
    g, _ = two_block_graph
    fr = bf.fit(g, POISSON, 2, seed=1, restarts=1)
    fr.icl = -math.inf
    path = tmp_path / "fit.json"
    write_fit_json(path, fr, POISSON, extra={"n": g.n, "covariate_mean": None})

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    data = json.loads(path.read_text(), parse_constant=refuse)
    assert data["icl"] is None
    assert data == fit_to_jsonable(fr, POISSON, extra={"n": g.n, "covariate_mean": None})
    fr2, _ = fit_from_jsonable(data)
    assert fr2.icl is None
    assert np.array_equal(fr2.posterior.tau, fr.posterior.tau)
    assert fr2.bound_trajectory == fr.bound_trajectory

@pytest.mark.parametrize("flag, start", [([], "spectral"), (["--init", "auto"], "spectral"),
                                         (["--init", "hier"], "hierarchical")])
def test_cli_init_follows_the_library_default(tmp_path, monkeypatch, flag, start):
    """Without --init, fit and select start a sparse graph as engine.fit does."""
    params = MixtureParams(alpha=np.array([0.5, 0.5]),
                           theta=PoissonParams(lam=np.array([[0.08, 0.01], [0.01, 0.06]])))
    g, _ = bf.sample_graph(params, 200, False, POISSON, seed=4)
    edges = tmp_path / "edges.csv"
    with open(edges, "w", encoding="utf-8") as fh:
        fh.write("i,j,value\n")
        for i, j in zip(*np.nonzero(np.triu(g.values))):
            fh.write(f"{i},{j},{int(g.values[i, j])}\n")
    starts = []
    real = engine.init_partition

    def spy(graph, Q, strategy="hierarchical", **kwargs):
        starts.append(strategy)
        return real(graph, Q, strategy, **kwargs)

    monkeypatch.setattr(engine, "init_partition", spy)
    common = ["--edges", str(edges), "--n", "200", "--fill", "0", "--restarts", "1", *flag]
    assert main(["fit", *common, "--q", "2", "--out", str(tmp_path / "fit.json")]) == 0
    assert main(["select", *common, "--qmin", "2", "--qmax", "2",
                 "--out", str(tmp_path / "sel.csv")]) == 0
    assert starts == [start] * 2


def test_cli_fit_select_predict_report(tmp_path, two_block_graph, capsys):
    g, edges = two_block_graph
    fit_json = tmp_path / "fit.json"
    assert main(["fit", "--edges", str(edges), "--family", "poisson", "--q", "2",
                 "--seed", "1", "--restarts", "2", "--out", str(fit_json)]) == 0
    data = json.loads(fit_json.read_text())
    assert len(data["alpha"]) == 2
    assert data["family"] == "poisson"

    table = tmp_path / "sweep.csv"
    best = tmp_path / "best.json"
    assert main(["select", "--edges", str(edges), "--family", "poisson",
                 "--qmin", "1", "--qmax", "3", "--seed", "1", "--restarts", "2",
                 "--out", str(table), "--fit-out", str(best)]) == 0
    rows = list(csv.DictReader(table.open()))
    assert [r["Q"] for r in rows] == ["1", "2", "3"]
    chosen = [int(r["Q"]) for r in rows if r["chosen"] == "1"]
    assert chosen == [2]

    pred_csv = tmp_path / "pred.csv"
    assert main(["predict", "--fit", str(fit_json), "--edges", str(edges),
                 "--out", str(pred_csv)]) == 0
    rows = list(csv.DictReader(pred_csv.open()))
    kinds = {r["record"] for r in rows}
    assert kinds == {"degree", "edge", "r2"}
    degrees = [r for r in rows if r["record"] == "degree"]
    assert len(degrees) == g.n
    # K_hat equals the row sums of X_hat exactly
    edge_rows = [r for r in rows if r["record"] == "edge"]
    khat = {int(r["i"]): float(r["predicted"]) for r in degrees}
    sums = dict.fromkeys(khat, 0.0)
    for r in edge_rows:
        i, j = int(r["i"]), int(r["j"])
        sums[i] += float(r["predicted"])
        sums[j] += float(r["predicted"])  # undirected: each pair listed once
    for i in khat:
        assert khat[i] == pytest.approx(sums[i], abs=1e-12)

    capsys.readouterr()
    assert main(["report", "--fit", str(best), "--baseline", str(fit_json)]) == 0
    out = capsys.readouterr().out
    assert "alpha_hat" in out and "delta ICL" in out
    a = json.loads(best.read_text())["icl"]
    b = json.loads(fit_json.read_text())["icl"]
    assert f"{a - b:.4f}" in out  # delta equals the stored difference exactly


def test_cli_select_reports_the_q_it_did_not_fit(tmp_path, two_block_graph, capsys):
    """Q = 3 and 4 fail to beat Q = 2, so Q = 5 is skipped, not failed."""
    _, edges = two_block_graph
    common = ["select", "--edges", str(edges), "--qmin", "1", "--qmax", "5", "--seed", "1",
              "--restarts", "2"]
    capsys.readouterr()
    assert main([*common, "--out", str(tmp_path / "sweep.csv")]) == 0
    out = capsys.readouterr().out
    assert "Q=5 J=" not in out
    assert ("sweep stopped: ICL at Q=3 and Q=4 did not beat the best" in out
            and "Q=5 not fitted" in out)
    rows = list(csv.DictReader((tmp_path / "sweep.csv").open()))
    assert [(r["Q"], r["status"]) for r in rows] == [
        ("1", "fitted"), ("2", "fitted"), ("3", "fitted"), ("4", "fitted"), ("5", "skipped")]
    assert rows[-1]["J"] == rows[-1]["ICL"] == rows[-1]["error"] == "" and rows[-1]["chosen"] == "0"

    assert main([*common, "--out", str(tmp_path / "sweep.json")]) == 0
    data = json.loads((tmp_path / "sweep.json").read_text())
    assert data["chosen_q"] == 2 and data["stop_reason"].endswith("Q=5 not fitted")
    assert data["sweep"][-1] == {"Q": 5, "status": "skipped", "J": "", "ICL": None,
                                 "entropy": "", "chosen": 0, "error": ""}


def test_cli_simulate(tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"n": 25, "a": 1.0, "lambda": 4.0, "gamma": 0.1,
                               "q_star": 2, "s": 2, "seed": 3, "q_max": 3}))
    out = tmp_path / "rep"
    assert main(["simulate", "--config", str(cfg), "--mode", "selection",
                 "--out", str(out)]) == 0
    assert (out / "report.csv").exists()
    assert (out / "summary.txt").exists()
    rows = list(csv.DictReader((out / "report.csv").open()))
    assert rows and any(r["parameter"].startswith("freq_q_") for r in rows)


def test_cli_simulate_key_value_config(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("n = 20\na = 1.0\nlambda = 3.0\ngamma = 0.1\nq_star = 2\ns = 2\nseed = 1\n")
    out = tmp_path / "rep2"
    assert main(["simulate", "--config", str(cfg), "--mode", "estimation",
                 "--out", str(out)]) == 0
    assert (out / "report.csv").exists()


@pytest.mark.parametrize("key, value", [
    ("n", 30.9), ("q_star", 2.5), ("s", 2.7), ("seed", 1.9), ("q_max", 3.5),
    ("n", True), ("s", False), ("seed", True), ("q_max", float("nan")),
])
def test_cli_simulate_refuses_a_non_integral_config_value(tmp_path, capsys, key, value):
    """int() would truncate these and run a cell no one asked for."""
    config = {"n": 25, "a": 1.0, "lambda": 4.0, "gamma": 0.1, "q_star": 2, "s": 2,
              "seed": 3, "q_max": 3, key: value}
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "rep"
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg), "--mode", "selection",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("blockfit: ") and f"{key} must be an integer, got {value!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["a", "lambda", "gamma"])
def test_cli_simulate_refuses_a_bool_for_a_real_config_value(tmp_path, capsys, key):
    """JSON true is not the number 1."""
    config = {"n": 25, "a": 1.0, "lambda": 4.0, "gamma": 0.1, "s": 2, key: True}
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "rep"
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg), "--mode", "selection",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("blockfit: input error: bad grid config: ")
    assert "must be a finite real number, got True" in err
    assert not out.exists()


def test_cli_simulate_refuses_a_negative_seed(tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"n": 25, "a": 1.0, "lambda": 4.0, "gamma": 0.1, "s": 2,
                               "seed": -1}))
    out = tmp_path / "rep"
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "blockfit: input error: bad grid config: seed must be at least 0, got -1\n"
    assert not out.exists()


def test_cli_simulate_refuses_an_unknown_mode_in_the_config(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("n = 20\na = 1.0\nlambda = 3.0\ngamma = 0.1\nmode = bogus\n")
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("blockfit: ") and "mode must be one of" in err and "'bogus'" in err


def test_cli_error_exit_codes(tmp_path, two_block_graph):
    g, edges = two_block_graph
    # usage errors -> 2
    assert main(["fit", "--edges", str(edges)]) == 2
    assert main(["nonsense"]) == 2
    # missing/malformed input -> 3
    assert main(["fit", "--edges", str(tmp_path / "missing.csv"), "--q", "2"]) == 3
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    assert main(["fit", "--edges", str(bad), "--q", "2"]) == 3
    # inconsistent dimensions: covariates required for PRMH
    assert main(["fit", "--edges", str(edges), "--family", "poisson-prmh",
                 "--q", "2"]) == 3
    # malformed fit JSON -> 3
    broken = tmp_path / "broken.json"
    broken.write_text("{}")
    assert main(["predict", "--fit", str(broken), "--edges", str(edges)]) == 3


@pytest.mark.parametrize("argv, code, message", [
    (["fit", "--q", "0"], 2, "--q must be at least 1"),
    (["select", "--qmin", "0"], 2, "--qmin must be at least 1"),
    (["select", "--qmin", "3", "--qmax", "2"], 2, "--qmin 3 exceeds --qmax 2"),
    (["fit", "--q", "50"], 3, "exceeds the graph's 30 nodes"),
    (["fit", "--q", "2", "--init", "file", "--init-file", "{short}"], 3, "expected 30 labels, got 3"),
    (["fit", "--q", "2", "--init", "file", "--init-file", "{frac}"], 3, "must be integers"),
    (["fit", "--q", "2", "--init", "file", "--init-file", "{wide}"], 3, "must lie in 0..1"),
    (["fit", "--q", "2", "--init", "file", "--init-file", "{empty}"], 3, "expected 30 labels, got 0"),
    (["select", "--qmin", "29", "--qmax", "31"], 3, "--qmax 31 exceeds the graph's 30 nodes"),
])
def test_cli_bad_q_and_label_files(tmp_path, two_block_graph, capsys, argv, code, message):
    """Each bad value exits with its code and one ``blockfit:`` line, no traceback."""
    _, edges = two_block_graph
    files = {"short": "0,1,0\n", "frac": ",".join(["0"] * 29 + ["1.5"]) + "\n",
             "wide": ",".join(["0"] * 29 + ["5"]) + "\n", "empty": ""}
    for name, text in files.items():
        (tmp_path / f"{name}.csv").write_text(text)
    argv = [a.format(**{k: tmp_path / f"{k}.csv" for k in files}) for a in argv]
    capsys.readouterr()
    assert main(argv + ["--edges", str(edges), "--restarts", "1"]) == code
    err = capsys.readouterr().err
    assert err.startswith("blockfit: ") and err.count("\n") == 1 and message in err


def test_cli_usage_errors_come_before_reading_files(tmp_path):
    missing = str(tmp_path / "missing.csv")
    assert main(["fit", "--edges", missing, "--q", "0"]) == 2
    assert main(["select", "--edges", missing, "--qmin", "2", "--qmax", "1"]) == 2


@pytest.mark.parametrize("command", [["fit", "--q", "2"], ["select", "--qmax", "3"]],
                         ids=["fit", "select"])
def test_cli_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    """numpy takes no negative seed; it is refused before any file is read."""
    capsys.readouterr()
    assert main(command + ["--edges", str(tmp_path / "missing.csv"), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "blockfit: usage error: --seed must be at least 0, got -1\n"


def test_cli_fit_from_a_label_file_matches_the_library(tmp_path):
    params = MixtureParams(alpha=np.array([0.4, 0.6]),
                           theta=PoissonParams(lam=np.array([[5.0, 0.5], [0.5, 2.0]])))
    g, labels = bf.sample_graph(params, 30, False, POISSON, seed=3)
    edges, init = tmp_path / "edges.csv", tmp_path / "labels.csv"
    write_edges_csv(edges, g)
    init.write_text("\n".join(str(z) for z in labels) + "\n")
    out = tmp_path / "fit.json"
    assert main(["fit", "--edges", str(edges), "--q", "2", "--init", "file",
                 "--init-file", str(init), "--restarts", "1", "--seed", "0",
                 "--out", str(out)]) == 0
    got, _, _ = read_fit_json(out)
    want = bf.fit(g, POISSON, 2, seed=0, init=labels, restarts=1)
    assert want.diagnostics["init"] == "given"
    assert got.bound_trajectory[-1] == want.bound_trajectory[-1]
    assert np.array_equal(got.map_assignment, want.map_assignment)


def test_cli_fit_with_covariates_and_report_effect(tmp_path, capsys):
    rng = np.random.default_rng(5)
    n = 25
    t = rng.integers(0, 3, n).astype(float)
    y = np.abs(t[:, None] - t[None, :])
    cov = EdgeCovariates.from_matrix(y[:, :, None].copy(), directed=False)
    params = MixtureParams(alpha=np.array([0.5, 0.5]),
                           theta=PoissonRegParams(lam=np.array([[5.0, 0.8], [0.8, 2.0]]),
                                                  beta=np.array([-0.4]), shared=True))
    g, _ = bf.sample_graph(params, n, False, FamilySpec("poisson-prmh"), seed=6, cov=cov)
    edges = tmp_path / "edges.csv"
    write_edges_csv(edges, g)
    cov_csv = tmp_path / "cov.csv"
    write_cov_csv(cov_csv, cov, g)
    fit_json = tmp_path / "fit.json"
    assert main(["fit", "--edges", str(edges), "--cov", str(cov_csv),
                 "--family", "poisson-prmh", "--q", "2", "--seed", "0",
                 "--restarts", "2", "--out", str(fit_json)]) == 0
    capsys.readouterr()
    assert main(["report", "--fit", str(fit_json)]) == 0
    out = capsys.readouterr().out
    assert "beta_hat" in out
    assert "covariate effect" in out


def test_cli_predict_loads_its_inputs_as_fit_does(tmp_path, two_block_graph, capsys):
    g, edges = two_block_graph
    # the node count and orientation come from the fit JSON
    fit_json = tmp_path / "fit.json"
    assert main(["fit", "--edges", str(edges), "--q", "2", "--seed", "0", "--restarts", "1",
                 "--n", "32", "--fill", "0", "--out", str(fit_json)]) == 0
    pred = tmp_path / "pred.csv"
    assert main(["predict", "--fit", str(fit_json), "--edges", str(edges), "--fill", "0",
                 "--out", str(pred)]) == 0
    assert sum(r["record"] == "degree" for r in csv.DictReader(pred.open())) == 32
    # a covariate family needs --cov in predict as in fit
    rng = np.random.default_rng(0)
    y = rng.normal(0.0, 1.0, (g.n, g.n, 1))
    cov = EdgeCovariates.from_matrix(y + y.transpose(1, 0, 2), directed=False)
    prmh = FamilySpec("poisson-prmh")
    prmh_json = tmp_path / "prmh.json"
    write_fit_json(prmh_json, bf.fit(g, prmh, 2, cov, seed=0, restarts=1), prmh,
                   extra={"n": g.n, "directed": False})
    capsys.readouterr()
    assert main(["predict", "--fit", str(prmh_json), "--edges", str(edges)]) == 3
    assert "requires --cov" in capsys.readouterr().err


def test_cli_deterministic_is_a_usage_error(tmp_path, two_block_graph):
    """Sweeps run serially, so no command takes a thread flag."""
    _, edges = two_block_graph
    assert main(["fit", "--edges", str(edges), "--q", "2", "--deterministic"]) == 2
    assert main(["select", "--edges", str(edges), "--qmin", "1", "--qmax", "2",
                 "--restarts", "1", "--deterministic", "--out", str(tmp_path / "s.csv")]) == 2
    config = tmp_path / "cell.json"
    config.write_text('{"n": 20, "a": 0.5, "lambda": 2, "gamma": 0.5, "s": 1}')
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim"),
                 "--deterministic"]) == 2


def test_read_edge_csv_paired(tmp_path):
    path = tmp_path / "paired.csv"
    path.write_text("i,j,v1,v2\n0,1,1.5,2.5\n")
    cols, paired = read_edge_csv(path)
    assert paired and (cols.i.tolist(), cols.j.tolist()) == ([0], [1])
    assert cols.values.tolist() == [[1.5, 2.5]]


def test_fit_from_jsonable_rejects_garbage():
    with pytest.raises(bf.InputFormatError):
        fit_from_jsonable({"family": "poisson"})


def test_selection_json_is_strict(tmp_path, two_block_graph):
    from blockfit.io import write_selection_table
    from blockfit.selection import SelectionRecord, SelectionResult

    g, _ = two_block_graph
    fr = bf.fit(g, POISSON, 1, seed=0, restarts=1)
    result = SelectionResult(records=[
        SelectionRecord(q=1, fit=fr, icl=bf.icl(g, POISSON, fr)),
        SelectionRecord(q=2, fit=None, icl=-math.inf, error="diverged"),
    ], chosen_q=1)
    path = tmp_path / "sweep.json"
    write_selection_table(path, result, fmt="json")

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    data = json.loads(path.read_text(), parse_constant=refuse)
    assert data["sweep"][1]["ICL"] is None
    assert data["sweep"][0]["ICL"] == result.records[0].icl


def test_fit_json_with_invalid_parameters_is_refused(two_block_graph, tmp_path):
    g, _ = two_block_graph
    data = fit_to_jsonable(bf.fit(g, POISSON, 2, seed=0, restarts=1))
    data["theta"]["lam"] = [[-1.0, 0.5], [0.5, 2.0]]  # a negative Poisson rate
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(data))
    with pytest.raises(bf.InputFormatError, match="rates"):
        read_fit_json(path)


@pytest.mark.parametrize("field, value, message", [
    ("theta", {"lam": np.ones((3, 3)).tolist()}, "Q=3"),  # Q = 2 in alpha and tau
    ("alpha", [0.7, 0.7], "alpha"),
])
def test_fit_json_with_inconsistent_parameters_is_refused(two_block_graph, field, value,
                                                          message):
    g, _ = two_block_graph
    data = fit_to_jsonable(bf.fit(g, POISSON, 2, seed=0, restarts=1))
    data[field] = value
    with pytest.raises(bf.InputFormatError, match=message):
        fit_from_jsonable(data)


@pytest.mark.parametrize("edit, message", [
    ({"Q": 7, "labels": {0: 5}}, "Q is 7"),
    ({"Q": 3}, "Q is 3"),
    ({"labels": {0: 5}}, "outside 0..1"),
    ({"labels": {0: -1}}, "outside 0..1"),
    ({"tau": lambda tau: [row + [0.0] for row in tau]}, r"expected \(30, 2\)"),
    ({"tau": lambda tau: tau[:-1]}, r"expected \(30, 2\)"),
])
def test_fit_json_groups_must_agree_with_alpha(two_block_graph, edit, message):
    g, _ = two_block_graph
    data = fit_to_jsonable(bf.fit(g, POISSON, 2, seed=0, restarts=1))
    fit_from_jsonable(data)
    data["Q"] = edit.get("Q", data["Q"])
    for i, label in edit.get("labels", {}).items():
        data["map_assignment"][i] = label
    data["tau"] = edit.get("tau", lambda tau: tau)(data["tau"])
    with pytest.raises(bf.InputFormatError, match=message):
        fit_from_jsonable(data)


def _loop_prediction_csv(fh, report, directed):
    """The per-pair ``csv`` writer that write_prediction_csv replaced."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["record", "i", "j", "observed", "predicted"])
    n = report.observed_degrees.size
    for i in range(n):
        writer.writerow(["degree", i, "", repr(float(report.observed_degrees[i])),
                         repr(float(report.predicted_degrees[i]))])
    for i in range(n):
        js = range(n) if directed else range(i + 1, n)
        for j in js:
            if i == j:
                continue
            writer.writerow(["edge", i, j, repr(float(report.observed_edges[i, j])),
                             repr(float(report.predicted_edges[i, j]))])
    writer.writerow(["r2", "degree", "", repr(float(report.r2_degrees)), ""])
    writer.writerow(["r2", "edge", "", repr(float(report.r2_edges)), ""])


@pytest.mark.parametrize("directed", [False, True])
def test_prediction_csv_bytes_match_the_row_loop(directed, monkeypatch):
    import io as pyio

    from blockfit import io as bio
    from blockfit.predict import prediction_report

    params = MixtureParams(alpha=np.array([0.4, 0.6]),
                           theta=PoissonParams(lam=np.array([[5.0, 0.3], [0.7, 2.0]])))
    g, _ = bf.sample_graph(params, 9, directed, POISSON, seed=3)
    report = prediction_report(bf.fit(g, POISSON, 2, seed=0, restarts=1), g)
    monkeypatch.setattr("blockfit.predict._BLOCK", 20)  # several row blocks of 2 rows
    got, want = pyio.StringIO(), pyio.StringIO()
    bio.write_prediction_csv(got, report, directed)
    _loop_prediction_csv(want, report, directed)
    assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("command", [["fit", "--q", "2"], ["select", "--qmax", "3"]],
                         ids=["fit", "select"])
@pytest.mark.parametrize("restarts", ["0", "-3"])
def test_cli_fewer_than_one_restart_is_a_usage_error(tmp_path, capsys, command, restarts):
    capsys.readouterr()
    argv = command + ["--edges", str(tmp_path / "missing.csv"), "--restarts", restarts]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"blockfit: usage error: --restarts must be at least 1, got {restarts}\n")


def test_cli_init_takes_every_start_fit_takes(tmp_path):
    """The CLI's --init names are engine.fit's, so spectral and hierarchical
    are asked for by name and fit as auto and hier do."""
    params = MixtureParams(alpha=np.array([0.5, 0.5]),
                           theta=PoissonParams(lam=np.array([[0.08, 0.01], [0.01, 0.06]])))
    g, _ = bf.sample_graph(params, 200, False, POISSON, seed=4)
    assert g.sparse_values is not None
    edges = tmp_path / "edges.csv"
    with open(edges, "w", encoding="utf-8") as fh:
        fh.write("i,j,value\n")
        for i, j in zip(*np.nonzero(np.triu(g.values))):
            fh.write(f"{i},{j},{int(g.values[i, j])}\n")
    fits = {}
    for init in ("auto", "spectral", "hier", "hierarchical"):
        out = tmp_path / f"{init}.json"
        assert main(["fit", "--edges", str(edges), "--n", "200", "--fill", "0", "--q", "2",
                     "--restarts", "2", "--seed", "3", "--init", init, "--out", str(out)]) == 0
        fits[init] = out.read_bytes()
    assert fits["spectral"] == fits["auto"]
    assert fits["hierarchical"] == fits["hier"]
    assert fits["spectral"] != fits["hier"]  # the two starts are not one


def _report(tmp_path, capsys, spec, g, cov=None):
    fr = bf.fit(g, spec, 2, cov, seed=0, restarts=1)
    fit_json = tmp_path / f"{spec.kind}.json"
    write_fit_json(fit_json, fr, spec, extra={"n": g.n, "directed": g.directed,
                                              "covariate_mean": None})
    capsys.readouterr()
    assert main(["report", "--fit", str(fit_json)]) == 0
    return capsys.readouterr().out


def test_cli_report_names_every_parameter(tmp_path, capsys):
    rng = np.random.default_rng(8)
    z = np.arange(30) % 2
    X = rng.normal(np.where(z[:, None] == z[None, :], 2.0, -1.0), 1.0)
    g = bf.ValuedGraph.from_matrix(np.triu(X, 1) + np.triu(X, 1).T, directed=False,
                                   value_kind="real")
    out = _report(tmp_path, capsys, FamilySpec("gaussian"), g)
    assert "mu_hat:" in out and "sigma2_hat:" in out
    assert out.index("mu_hat:") < out.index("sigma2_hat:")

    y = rng.normal(0.0, 0.5, (30, 30, 2))
    cov = EdgeCovariates.from_matrix(0.5 * (y + y.transpose(1, 0, 2)), directed=False)
    spec = FamilySpec("poisson-prmi", covariate_dim=2)
    params = MixtureParams(alpha=np.array([0.5, 0.5]), theta=PoissonRegParams(
        lam=np.array([[4.0, 0.7], [0.7, 3.0]]), beta=np.full((2, 2, 2), 0.3), shared=False))
    g, _ = bf.sample_graph(params, 30, False, spec, seed=2, cov=cov)
    out = _report(tmp_path, capsys, spec, g, cov)
    assert "lam_hat:" in out
    beta = next(line for line in out.splitlines() if line.startswith("beta_hat: "))
    assert np.shape(json.loads(beta[len("beta_hat: "):])) == (2, 2, 2)
    assert "covariate effect" not in out
