import hashlib
import os
import stat
from pathlib import Path

import numpy as np
import pytest

from graphdrs import cli
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
    rows = [l for l in Path(out).read_text().splitlines() if not l.startswith("#")]
    assert rows[0].startswith("iter,")
    last = rows[-1].split(",")
    assert float(last[1]) < 1e-16


def test_solve_byte_identical_reruns(graph_file, quad_cfg, tmp_path):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    args = ["solve", "--graph", graph_file, "--config", quad_cfg,
            "--max-iter", "50"]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


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
    rows = [l for l in Path(out).read_text().splitlines() if not l.startswith("#")]
    assert rows == ["graph_id,edges,lambda1", "1,1-2,2"]


def test_enumerate_guard(tmp_path, capsys):
    assert main(["enumerate", "--n", "7", "--out", str(tmp_path / "e.csv")]) == 2


@pytest.mark.parametrize("n", ["1", "0", "-2"])
def test_enumerate_rejects_fewer_than_two_nodes(tmp_path, capsys, n):
    out = tmp_path / "e.csv"
    assert main(["enumerate", "--n", n, "--out", str(out)]) == 2
    assert "--n" in capsys.readouterr().err
    assert not out.exists()


def test_enumerate_four_nodes(tmp_path):
    out = str(tmp_path / "enum4.csv")
    assert main(["enumerate", "--n", "4", "--out", out]) == 0
    rows = [l for l in Path(out).read_text().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 38


def test_transport_sweep_row_count(tmp_path):
    out = str(tmp_path / "sweep.csv")
    code = main(
        ["transport-sweep", "--p", "6", "--cap", "0.2", "--max-iter", "4",
         "--out", out]
    )
    assert code == 0
    rows = [l for l in Path(out).read_text().splitlines() if not l.startswith("#")]
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


def test_transport_sweep_rejects_nan_capacity(tmp_path, capsys):
    code = main(
        ["transport-sweep", "--p", "5", "--max-iter", "2", "--cap", "nan",
         "--out", str(tmp_path / "s.csv")]
    )
    assert code == 2
    assert "capacity" in capsys.readouterr().err


@pytest.mark.parametrize("width", ["0", "nan"])
def test_svm_rejects_bad_kernel_width(tmp_path, capsys, width):
    code = main(
        ["svm", "--n", "12", "--officials", "3", "--per-official", "4",
         "--max-iter", "2", "--kernel-width", width, "--out", str(tmp_path / "s.csv")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "kernel width" in err and "symmetric" not in err


@pytest.mark.parametrize(
    "lines, message",
    [
        ("centers = 1 0; 0 1; -1 0; 0 -1\nmus = 1 nan 1 1\n",
         "mu must be positive and finite, got nan"),
        ("centers = 1 0; 0 1; -1 0; 0 -1\nmus = 1 inf 1 1\n",
         "mu must be positive and finite, got inf"),
        ("centers = 1 0; nan 1; -1 0; 0 -1\n", "c[0] must be finite, got nan"),
        ("centers = 1 0; 0 inf; -1 0; 0 -1\n", "c[1] must be finite, got inf"),
    ],
    ids=["nan-mu", "inf-mu", "nan-center", "inf-center"],
)
def test_solve_rejects_non_finite_quadratic_parameters(graph_file, tmp_path, capsys,
                                                       lines, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("problem = quadratic\n" + lines)
    code = main(["solve", "--graph", graph_file, "--config", str(cfg),
                 "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_svm_rejects_nan_gamma(tmp_path, capsys):
    code = main(
        ["svm", "--n", "12", "--officials", "3", "--per-official", "4",
         "--max-iter", "2", "--gamma", "nan", "--out", str(tmp_path / "s.csv")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: gamma must be nonnegative and finite, got nan\n"


SMALL_SVM = ["svm", "--n", "12", "--officials", "3", "--per-official", "4",
             "--max-iter", "2"]


def test_svm_bad_theta_opens_no_output(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(SMALL_SVM + ["--theta", "2.5", "--out", str(out)]) == 2
    assert not out.exists()
    out.write_bytes(b"earlier run\n")
    assert main(SMALL_SVM + ["--theta", "2.5", "--out", str(out)]) == 2
    assert out.read_bytes() == b"earlier run\n"
    assert "relaxation" in capsys.readouterr().err


def test_svm_rejects_nan_sigma(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(SMALL_SVM + ["--sigma", "nan", "--out", str(out)]) == 2
    assert not out.exists()
    assert "sigma" in capsys.readouterr().err


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
    rows = [l for l in Path(out).read_text().splitlines() if not l.startswith("#")]
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
    text = Path(out).read_text()
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
    assert "# max_deviation = 0\n" in Path(out).read_text()


@pytest.mark.parametrize("flag", ["--max-iter", "--tol"])
def test_simulate_rejects_solver_only_flags(graph_file, quad_cfg, tmp_path, capsys, flag):
    out = tmp_path / "log.csv"
    code = main(
        ["simulate", "--graph", graph_file, "--config", quad_cfg,
         "--rounds", "3", flag, "1", "--out", str(out)]
    )
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_seed_recorded_in_header(graph_file, quad_cfg, tmp_path):
    out = str(tmp_path / "t.csv")
    main(["solve", "--graph", graph_file, "--config", quad_cfg,
          "--max-iter", "3", "--seed", "17", "--out", out])
    assert Path(out).read_text().splitlines()[0].strip() == "# seed = 17"


SOLVER_LINES = ["# max_iter = 2", "# tol = 0"]


@pytest.mark.parametrize(
    "command, flags, expected",
    [
        ("solve", ["--max-iter", "2", "--theta", "1.5"],
         ["# seed = 0", "# sigma = 1", "# theta = 1.5", *SOLVER_LINES,
          "# config = {config}"]),
        ("enumerate", ["--n", "3", "--seed", "5"], ["# seed = 5"]),
        ("transport-sweep", ["--p", "3", "--max-iter", "2", "--cap", "0.125"],
         ["# seed = 0", "# sigma = 2", "# theta = 1", *SOLVER_LINES,
          "# p = 3", "# cap = 0.125"]),
        ("svm", ["--n", "12", "--officials", "3", "--per-official", "4",
                 "--max-iter", "2", "--gamma", "0.25"],
         ["# seed = 0", "# sigma = 1", "# theta = 1", *SOLVER_LINES,
          "# n = 12", "# officials = 3", "# gamma = 0.25", "# kernel_width = 1"]),
        ("simulate", ["--rounds", "3", "--sigma", "0.5"],
         ["# seed = 0", "# sigma = 0.5", "# theta = 1", "# max_iter = 1000",
          "# tol = 0", "# protocol = tree", "# rounds = 3",
          "# max_deviation = 0", "# total_messages = 30"]),
    ],
)
def test_header_lines_of_every_subcommand(graph_file, quad_cfg, tmp_path,
                                          command, flags, expected):
    inputs = ["--graph", graph_file, "--config", quad_cfg]
    out = tmp_path / "out.csv"
    argv = [command, *(inputs if command in ("solve", "simulate") else []), *flags]
    assert main(argv + ["--out", str(out)]) == 0
    header = [l for l in out.read_text().splitlines() if l.startswith("#")]
    assert header == [line.format(config=quad_cfg) for line in expected]


@pytest.mark.parametrize("rounds", ["0", "-3"])
def test_simulate_rejects_non_positive_rounds(graph_file, quad_cfg, tmp_path, capsys, rounds):
    out = tmp_path / "log.csv"
    code = main(
        ["simulate", "--graph", graph_file, "--config", quad_cfg,
         "--rounds", rounds, "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "--rounds" in err and "max_iter" not in err
    assert not out.exists()


@pytest.mark.parametrize("p", ["0", "1", "2", "-5"])
def test_transport_sweep_rejects_small_grid(tmp_path, capsys, p):
    out = tmp_path / "s.csv"
    code = main(["transport-sweep", "--p", p, "--max-iter", "2", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--p" in err and "p >= 3" in err and "rectangle" not in err
    assert not out.exists()


def test_transport_sweep_rejects_small_grid_config(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("problem = transport\np = 2\n")
    code = main(
        ["transport-sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]
    )
    assert code == 2
    assert "p >= 3" in capsys.readouterr().err


def test_transport_sweep_smallest_grid(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["transport-sweep", "--p", "3", "--max-iter", "1", "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 1 + 38 * 2


# ---------------------------------------------------------------------------
# --out is rewritten in place: opened without truncation, cut to length after


def _runs(graph_file, quad_cfg):
    return {
        "solve": ["solve", "--graph", graph_file, "--config", quad_cfg,
                  "--max-iter", "20"],
        "enumerate": ["enumerate", "--n", "3"],
        "transport-sweep": ["transport-sweep", "--p", "3", "--max-iter", "2"],
        "svm": ["svm", "--n", "12", "--officials", "3", "--per-official", "4",
                "--max-iter", "3"],
        "simulate": ["simulate", "--graph", graph_file, "--config", quad_cfg,
                     "--rounds", "5"],
    }


@pytest.mark.parametrize(
    "command", ["solve", "enumerate", "transport-sweep", "svm", "simulate"]
)
def test_out_rewrite_leaves_exactly_the_new_bytes(graph_file, quad_cfg, tmp_path, command):
    args = _runs(graph_file, quad_cfg)[command]
    fresh = tmp_path / "fresh.csv"
    assert main(args + ["--out", str(fresh)]) == 0
    new = fresh.read_bytes()
    out = tmp_path / "out.csv"
    for stale in (b"x" * (3 * len(new) + 7), b"short\n", new[:-1] + b"?"):
        out.write_bytes(stale)
        assert main(args + ["--out", str(out)]) == 0
        assert out.read_bytes() == new


SVM_CFG = "problem = svm\nn = 50\nofficials = 5\nper_official = 10\n"
SIMULATE_PINS = [
    ("tree", "741e2bbabc08857e3e1717023b2cf117115e2d3373b5d0ada6eb6041d1374787", QUAD_CFG, 5),
    ("general", "a28db0ca1cd2c23ff4f5fa3b7d13d0c7222ee669bad720fedea742a3ae84aec5", QUAD_CFG, 5),
    # the replay solves all 50 hinge agents as one stacked call per sweep
    ("tree", "325a650a0de0b0f36343f977d93e75c22affc081dc22a482eff1829db7ea9fcf", SVM_CFG, 30),
    ("general", "1b0424b902f6affb75c62242bf705ce8b3794f544de4b048711fc87e059f1b4f", SVM_CFG, 30),
]


@pytest.mark.parametrize(
    "protocol, digest, config, rounds",
    [pytest.param(*pin, id=f"{pin[0]}-{pin[1]}") for pin in SIMULATE_PINS],
)
def test_simulate_csv_bytes_are_pinned(graph_file, tmp_path, protocol, digest, config, rounds):
    # integers and flags only (max_deviation is exactly 0), so the bytes do
    # not depend on the platform's floating-point libraries
    cfg = tmp_path / "problem.cfg"
    cfg.write_text(config)
    graph = ["--graph", graph_file] if config == QUAD_CFG else []  # SVM builds its own
    out = tmp_path / "log.csv"
    out.write_text("stale\n" * 1000)
    assert main(
        ["simulate", *graph, "--config", str(cfg), "--protocol", protocol,
         "--rounds", str(rounds), "--out", str(out)]
    ) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_out_symlink_rewrites_target_and_keeps_link(tmp_path):
    fresh = tmp_path / "fresh.csv"
    assert main(["enumerate", "--n", "3", "--out", str(fresh)]) == 0
    target = tmp_path / "target.csv"
    target.write_text("stale\n" * 500)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert main(["enumerate", "--n", "3", "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == fresh.read_bytes()


def test_out_dev_null(capsys):
    assert main(["enumerate", "--n", "3", "--out", os.devnull]) == 0
    assert capsys.readouterr().err == ""
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_out_new_file_mode_follows_umask(tmp_path):
    old = os.umask(0o002)
    try:
        ref = tmp_path / "ref.csv"
        open(ref, "w").close()
        out = tmp_path / "new.csv"
        assert main(["enumerate", "--n", "2", "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(ref.stat().st_mode) == 0o664


def test_failed_sweep_leaves_only_the_new_partial_rows(tmp_path, monkeypatch):
    args = ["transport-sweep", "--p", "3", "--max-iter", "2"]
    full = tmp_path / "full.csv"
    assert main(args + ["--out", str(full)]) == 0
    calls = []
    real_run = cli.run

    def run_failing_on_second_graph(*a, **kw):
        calls.append(None)
        if len(calls) == 3:  # mode "a" of graph 2
            raise FloatingPointError("injected failure")
        return real_run(*a, **kw)

    monkeypatch.setattr(cli, "run", run_failing_on_second_graph)
    out = tmp_path / "out.csv"
    out.write_text("stale\n" * 10000)
    assert main(args + ["--out", str(out)]) == 1
    expected = "".join(
        line
        for line in full.read_text().splitlines(keepends=True)
        if line.startswith(("#", "graph_id,", "1,"))
    )
    assert out.read_text() == expected


K4_GRAPH = "STATE\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\nBASE\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
SVM12_CFG = "problem = svm\nn = 12\nofficials = 3\nper_official = 4\n"
TRANSPORT8_CFG = "problem = transport\np = 8\n"
# (id, sha256, solve config or None, solve on K4, arguments before --out)
CLI_PINS = [
    ("solve-quadratic-k4",
     "ff9b98dd101f057cfd57a96637bf7c86c208c3fda99bbdf95fd60eba5552cb41",
     QUAD_CFG, True, ["--max-iter", "40"]),
    ("solve-svm-n12",
     "0fdec99a56e9c3baddf4e56381e8048d2a35c99b681966af218660d182e35061",
     SVM12_CFG, False, ["--max-iter", "30"]),
    ("solve-transport-p8-k4",
     "d5570cd710d40d69c4c4c25fbae47bc2885a38de17c7c6c9a8e7522e2cb8ffe1",
     TRANSPORT8_CFG, True, ["--sigma", "2", "--max-iter", "30"]),
    ("svm",
     "bbc2fc2dd8a20e459bc945dd757623528360987f5260dc2369ab4e65c883caa3",
     None, False, ["svm", "--n", "12", "--officials", "3", "--per-official", "4"]),
    ("transport-sweep",
     "a61cd7801dd0e9a19c5b105759c5223464664338165050ab6a1c685dc09653cc",
     None, False, ["transport-sweep", "--p", "6", "--max-iter", "30"]),
    ("enumerate",
     "d9332d84b9ae7a45464a42a9d104a9d9d98111eab6a871760e7314d09e2d1737",
     None, False, ["enumerate", "--n", "4"]),
]


@pytest.mark.parametrize(
    "digest, config, on_k4, argv",
    [pytest.param(*pin[1:], id=pin[0]) for pin in CLI_PINS],
)
def test_cli_csv_bytes_are_pinned(tmp_path, digest, config, on_k4, argv):
    # floats are written with 17 significant digits, so these pin every bit
    # of the traces; the config path in solve's header is replaced by a token
    if config is not None:
        cfg = tmp_path / "problem.cfg"
        cfg.write_text(config)
        graph = tmp_path / "k4.txt"
        graph.write_text(K4_GRAPH)
        argv = ["solve", *(["--graph", str(graph)] if on_k4 else []),
                "--config", str(cfg), *argv]
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    data = out.read_bytes()
    if config is not None:
        data = data.replace(str(tmp_path / "problem.cfg").encode(), b"CONFIG")
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("command", ["solve", "transport-sweep"])
@pytest.mark.parametrize("width", ["0", "nan"])
def test_transport_non_positive_blob_width_opens_no_output(graph_file, tmp_path, capsys,
                                                           command, width):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(f"problem = transport\np = 6\nblob_width = {width}\n")
    graph = ["--graph", graph_file] if command == "solve" else []
    out = tmp_path / "out.csv"
    code = main([command, *graph, "--config", str(cfg), "--max-iter", "2",
                 "--out", str(out)])
    assert code == 2
    assert "blob width" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("p, bound", [("2", "p >= 3"), ("65", "p <= 64")])
def test_solve_transport_grid_bounds_open_no_output(graph_file, tmp_path, capsys,
                                                    p, bound):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(f"problem = transport\np = {p}\n")
    out = tmp_path / "out.csv"
    code = main(["solve", "--graph", graph_file, "--config", str(cfg), "--max-iter", "2",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert bound in err and "rectangle" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value", [("mu_center", "100,100"), ("mu_center", "8,4"), ("bridge", "3,1,4")]
)
def test_solve_transport_bad_key_is_named(graph_file, tmp_path, capsys, key, value):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(f"problem = transport\np = 8\n{key} = {value}\n")
    out = tmp_path / "out.csv"
    code = main(["solve", "--graph", graph_file, "--config", str(cfg), "--max-iter", "2",
                 "--out", str(out)])
    assert code == 2
    assert f"{key} needs" in capsys.readouterr().err
    assert not out.exists()


def test_solve_svm_without_agents_names_per_official(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("problem = svm\nn = 0\nper_official = 0\n")
    out = tmp_path / "out.csv"
    code = main(["solve", "--config", str(cfg), "--max-iter", "2", "--out", str(out)])
    assert code == 2
    assert "per_official" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "simulate"])
@pytest.mark.parametrize("cfg_text", [
    "problem = svm\nn = 0\nofficials = 0\n",
    "problem = svm\nn = 10\nofficials = 0\nper_official = 2\n",
], ids=["no_agents", "per_official_given"])
def test_svm_without_officials_names_officials(tmp_path, capsys, command, cfg_text):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / "out.csv"
    code = main([command, "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert "officials must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()
