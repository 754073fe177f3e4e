import numpy as np
import pytest

from graphdrs.cli import main

GRAPH4 = "STATE\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\nBASE\n1 2\n2 3\n3 4\n"
QUAD_CFG = "problem = quadratic\ncenters = 1 0; 0 1; -1 0; 0 -1\n"


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(GRAPH4)
    return str(path)


@pytest.fixture
def quad_cfg(tmp_path):
    path = tmp_path / "quad.cfg"
    path.write_text(QUAD_CFG)
    return str(path)


def test_solve_quadratic_tol(graph_file, quad_cfg, tmp_path):
    out = str(tmp_path / "trace.csv")
    code = main(
        ["solve", "--graph", graph_file, "--config", quad_cfg,
         "--max-iter", "2000", "--tol", "1e-16", "--out", out]
    )
    assert code == 0
    rows = [l for l in open(out) if not l.startswith("#")]
    assert rows[0].startswith("iter,")
    last = rows[-1].split(",")
    assert float(last[1]) < 1e-16


def test_solve_byte_identical_reruns(graph_file, quad_cfg, tmp_path):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    args = ["solve", "--graph", graph_file, "--config", quad_cfg,
            "--max-iter", "50"]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_solve_missing_base_section(tmp_path, quad_cfg, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("STATE\n1 2\n2 3\n")
    code = main(
        ["solve", "--graph", str(bad), "--config", quad_cfg,
         "--out", str(tmp_path / "t.csv")]
    )
    assert code == 2
    assert "BASE" in capsys.readouterr().err


def test_solve_operator_count_mismatch(tmp_path, graph_file, capsys):
    cfg = tmp_path / "two.cfg"
    cfg.write_text("problem = quadratic\ncenters = 1 0; 0 1\n")
    code = main(
        ["solve", "--graph", graph_file, "--config", str(cfg),
         "--out", str(tmp_path / "t.csv")]
    )
    assert code == 2
    assert "operators" in capsys.readouterr().err


def test_solve_missing_file(tmp_path, quad_cfg):
    code = main(
        ["solve", "--graph", str(tmp_path / "nope.txt"), "--config", quad_cfg,
         "--out", str(tmp_path / "t.csv")]
    )
    assert code == 2


def test_enumerate_small(tmp_path):
    out = str(tmp_path / "enum.csv")
    assert main(["enumerate", "--n", "2", "--out", out]) == 0
    rows = [l.strip() for l in open(out) if not l.startswith("#")]
    assert rows == ["graph_id,edges,lambda1", "1,1-2,2"]


def test_enumerate_guard(tmp_path, capsys):
    assert main(["enumerate", "--n", "7", "--out", str(tmp_path / "e.csv")]) == 2


def test_enumerate_four_nodes(tmp_path):
    out = str(tmp_path / "enum4.csv")
    assert main(["enumerate", "--n", "4", "--out", out]) == 0
    rows = [l for l in open(out) if not l.startswith("#")][1:]
    assert len(rows) == 38


def test_transport_sweep_row_count(tmp_path):
    out = str(tmp_path / "sweep.csv")
    code = main(
        ["transport-sweep", "--p", "6", "--cap", "0.2", "--max-iter", "4",
         "--out", out]
    )
    assert code == 0
    rows = [l for l in open(out) if not l.startswith("#")]
    assert rows[0].strip() == "graph_id,mode,lambda1,iter,variance"
    body = rows[1:]
    assert len(body) == 38 * 2 * 4
    modes = {line.split(",")[1] for line in body}
    assert modes == {"a", "b"}


def test_transport_sweep_grid_guard(tmp_path):
    code = main(
        ["transport-sweep", "--p", "100", "--out", str(tmp_path / "s.csv")]
    )
    assert code == 2


def test_transport_sweep_grid_guard_config(tmp_path, capsys):
    cfg = tmp_path / "big.cfg"
    cfg.write_text("problem = transport\np = 65\n")
    code = main(
        ["transport-sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]
    )
    assert code == 2
    assert "p <= 64" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags", [["--sigma", "nan"], ["--sigma", "inf"], ["--tol", "nan"]]
)
def test_transport_sweep_non_finite_is_input_error(tmp_path, capsys, flags):
    code = main(
        ["transport-sweep", "--p", "5", "--max-iter", "2", *flags,
         "--out", str(tmp_path / "s.csv")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "finite" in err and "numerical failure" not in err


def test_solve_non_finite_sigma_is_input_error(graph_file, quad_cfg, tmp_path):
    code = main(
        ["solve", "--graph", graph_file, "--config", quad_cfg,
         "--sigma", "nan", "--out", str(tmp_path / "t.csv")]
    )
    assert code == 2


def test_svm_sweep(tmp_path):
    out = str(tmp_path / "svm.csv")
    code = main(
        ["svm", "--n", "12", "--officials", "3", "--per-official", "4",
         "--max-iter", "10", "--out", out]
    )
    assert code == 0
    rows = [l for l in open(out) if not l.startswith("#")]
    assert rows[0].strip() == "sigma,iter,residual_sq,variance,objective"
    body = rows[1:]
    assert len(body) == 10 * 10
    sigmas = sorted({float(line.split(",")[0]) for line in body})
    assert sigmas[0] == pytest.approx(1e-2)
    assert sigmas[-1] == pytest.approx(1e1)
    assert len(sigmas) == 10
    assert np.allclose(sigmas, np.logspace(-2, 1, 10))


def test_simulate_report(graph_file, quad_cfg, tmp_path, capsys):
    out = str(tmp_path / "log.csv")
    code = main(
        ["simulate", "--graph", graph_file, "--config", quad_cfg,
         "--protocol", "tree", "--rounds", "10", "--out", out]
    )
    assert code == 0
    text = open(out).read()
    assert "# max_deviation = 0\n" in text
    assert "round,from,to,kind" in text
    assert "max_deviation=0" in capsys.readouterr().out


def test_simulate_general_protocol(graph_file, quad_cfg, tmp_path):
    out = str(tmp_path / "log.csv")
    code = main(
        ["simulate", "--graph", graph_file, "--config", quad_cfg,
         "--protocol", "general", "--rounds", "10", "--out", out]
    )
    assert code == 0
    assert "# max_deviation = 0\n" in open(out).read()


def test_seed_recorded_in_header(graph_file, quad_cfg, tmp_path):
    out = str(tmp_path / "t.csv")
    main(["solve", "--graph", graph_file, "--config", quad_cfg,
          "--max-iter", "3", "--seed", "17", "--out", out])
    assert open(out).readline().strip() == "# seed = 17"
