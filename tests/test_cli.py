import os
import subprocess
import sys
from pathlib import Path

import pytest

from vpembed.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _cli(*argv):
    """Run the CLI in a child process, so an uncaught exception shows as a
    traceback on stderr instead of failing inside the test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "vpembed.cli", *argv], capture_output=True, text=True, env=env
    )

FIG_TOP = """\
nodes 4 link_metrics 1 path_metrics 1
node 0 cap 10  # X
node 1 cap 10  # A
node 2 cap 10  # B
node 3 cap 10  # Y
edge 0 1 5 5
edge 0 2 9 1
edge 1 2 8 1
edge 2 1 8 1
edge 1 3 7 2
edge 2 3 4 1
"""


@pytest.fixture
def fig_top(tmp_path):
    path = tmp_path / "fig.top"
    path.write_text(FIG_TOP)
    return str(path)


# --- gen ---------------------------------------------------------------------


def test_gen_writes_topology(tmp_path, capsys):
    out = tmp_path / "t.top"
    code = main(["gen", "--model", "waxman", "--nodes", "100", "--degree", "4",
                 "--seed", "1", "-o", str(out)])
    assert code == 0
    text = out.read_text()
    assert sum(1 for line in text.splitlines() if line.startswith("node ")) == 100
    printed = capsys.readouterr().out
    assert "nodes=100" in printed and "avg_degree=" in printed


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.top", tmp_path / "b.top"
    args = ["gen", "--model", "waxman", "--nodes", "60", "--degree", "4", "--seed", "9"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_bad_alpha_exit_2(tmp_path, capsys):
    code = main(["gen", "--model", "waxman", "--nodes", "10", "--alpha", "0",
                 "-o", str(tmp_path / "x.top")])
    assert code == 2
    assert "alpha" in capsys.readouterr().err


def test_gen_missing_output_directory_is_one_line_error(tmp_path):
    # checked before generation, as for run
    proc = _cli("gen", "--nodes", "50", "-o", str(tmp_path / "nodir" / "x.top"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert "nodir" in proc.stderr
    assert proc.stdout == ""


# --- solve ---------------------------------------------------------------------


def test_solve_fig_general(fig_top, capsys):
    code = main(["solve", "--topology", fig_top, "--src", "0", "--dst", "3",
                 "--backend", "nm-general", "--link", "0 >= 5", "--path", "0 < 5"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("status=ok hops=3 path=X,B,A,Y")
    assert "sums=4.0" in out and "mins=7.0" in out


def test_solve_accepts_labels(fig_top, capsys):
    code = main(["solve", "--topology", fig_top, "--src", "X", "--dst", "Y",
                 "--backend", "nm-l1", "--link", "0 >= 5", "--path", "0 < 5"])
    assert code == 0
    assert "path=X,B,A,Y" in capsys.readouterr().out


def test_solve_ksp1_infeasible_exit_4(fig_top, capsys):
    code = main(["solve", "--topology", fig_top, "--src", "0", "--dst", "3",
                 "--backend", "ksp:1", "--link", "0 >= 5", "--path", "0 < 5"])
    assert code == 4
    assert capsys.readouterr().out.startswith("status=infeasible")


def test_solve_src_equals_dst(fig_top, capsys):
    code = main(["solve", "--topology", fig_top, "--src", "0", "--dst", "0",
                 "--backend", "nm-general"])
    assert code == 0
    assert capsys.readouterr().out.startswith("status=ok hops=0")


def test_solve_parse_error_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.top"
    bad.write_text("nodes 2 link_metrics 1 path_metrics 1\nedge 0 1 5\n")
    code = main(["solve", "--topology", str(bad), "--src", "0", "--dst", "1"])
    assert code == 3
    assert "line 2" in capsys.readouterr().err


def test_solve_nan_link_metric_is_parse_error(tmp_path):
    # a NaN bandwidth would clear every link bound
    top = tmp_path / "nan.top"
    top.write_text("nodes 2 link_metrics 1 path_metrics 1\nedge 0 1 nan 5\n")
    proc = _cli("solve", "--topology", str(top), "--src", "0", "--dst", "1", "--link", "0 >= 1")
    assert proc.returncode == 3
    assert proc.stdout == ""
    message = f"vpembed solve: {top}: line 2: link metrics must be >= 0, got nan"
    assert proc.stderr.splitlines() == [message]


def test_solve_unknown_backend_exit_2(fig_top, capsys):
    code = main(["solve", "--topology", fig_top, "--src", "0", "--dst", "3",
                 "--backend", "bogus"])
    assert code == 2


@pytest.mark.parametrize(
    "extra, code",
    [
        (["--dst", "3", "--backend", "nm-l1"], 2),  # nm-l1 needs exactly one --path
        (["--dst", "9"], 3),  # node id outside the 4-node topology
        (["--dst", "3", "--path", "0 < 5", "--path", "0 < 6"], 3),  # two bounds on metric 0
        (["--dst", "3", "--link", "0 >= nan", "--path", "0 < 5"], 3),
        (["--dst", "3", "--path", "0 < nan"], 3),
        (["--dst", "3", "--link", "3 >= 1"], 3),  # the topology has one link metric
    ],
    ids=["l1-without-path", "node-out-of-range", "duplicate-path-bound", "nan-link-bound",
         "nan-path-bound", "bound-beyond-arity"],
)
def test_solve_bad_query_is_one_line_error(fig_top, extra, code):
    proc = _cli("solve", "--topology", fig_top, "--src", "0", *extra)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_solve_non_strict_flag(tmp_path, capsys):
    top = tmp_path / "edge.top"
    top.write_text(
        "nodes 2 link_metrics 1 path_metrics 1\nnode 0 cap 1\nnode 1 cap 1\nedge 0 1 9 5\n"
    )
    strict = main(["solve", "--topology", str(top), "--src", "0", "--dst", "1",
                   "--backend", "nm-l1", "--path", "0 < 5"])
    assert strict == 4
    capsys.readouterr()
    lax = main(["solve", "--topology", str(top), "--src", "0", "--dst", "1",
                "--backend", "nm-l1", "--path", "0 < 5", "--non-strict"])
    assert lax == 0


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_solve_edijkstra_route_with_no_finite_sum_is_infeasible_exit_4(tmp_path, capsys, value):
    top = tmp_path / "cut.top"
    top.write_text(f"nodes 3 link_metrics 1 path_metrics 1\nedge 0 1 5 {value}\nedge 1 2 5 1\n")
    code = main(["solve", "--topology", str(top), "--src", "0", "--dst", "2",
                 "--backend", "edijkstra", "--path", "0 < 10"])
    assert code == 4
    assert capsys.readouterr().out.startswith("status=infeasible")


# --- run -----------------------------------------------------------------------


STEERING_CFG = """\
scenario = steering
model = waxman
nodes = 60
degrees = 3 4
bw_levels = low
delay_levels = high
backends = nm-l1 edijkstra
seeds = 1 2
pairs = 4
"""


def test_run_steering_csv_and_plotdata(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(STEERING_CFG + f"output = {tmp_path / 'out.csv'}\n")
    code = main(["run", str(cfg), "--emit-plotdata"])
    assert code == 0
    csv_text = (tmp_path / "out.csv").read_text()
    lines = csv_text.strip().splitlines()
    assert lines[0] == (
        "model,nodes,avg_degree,bw_level,delay_level,backend,seed,"
        "vn_alloc_ratio,link_alloc_ratio,link_util,throughput_gbps,"
        "energy_eff,avg_hops,avg_us,n_used"
    )
    assert len(lines) == 1 + 2 * 2 * 2
    assert (tmp_path / "throughput_nm-l1.dat").exists()
    assert (tmp_path / "energy_edijkstra.dat").exists()


def test_run_rerun_byte_identical(tmp_path):
    cfg = tmp_path / "exp.cfg"
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg.write_text(STEERING_CFG)
    assert main(["run", str(cfg), "-o", str(out1)]) == 0
    assert main(["run", str(cfg), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_jobs_parallel_identical(tmp_path):
    cfg = tmp_path / "exp.cfg"
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg.write_text(STEERING_CFG)
    assert main(["run", str(cfg), "-o", str(out1)]) == 0
    assert main(["run", str(cfg), "-o", str(out2), "--jobs", "3"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_jobs_below_one_exit_2(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(STEERING_CFG)
    out = tmp_path / "a.csv"
    assert main(["run", str(cfg), "-o", str(out), "--jobs", "0"]) == 2
    assert "jobs" in capsys.readouterr().err
    assert not out.exists()


def test_run_bad_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("scenario = steering\nwibble = 3\n")
    assert main(["run", str(cfg), "-o", str(tmp_path / "x.csv")]) == 2
    assert "wibble" in capsys.readouterr().err


def test_run_paper_scale_accepted_with_warning(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    # explicit tiny sizes keep the run fast; the scale flag alone triggers
    # the long-runtime warning
    cfg.write_text(
        "scenario = steering\nnodes = 50\npairs = 3\ndegrees = 4\n"
        "bw_levels = low\ndelay_levels = high\nbackends = nm-l1\nseeds = 1\n"
        "scale = paper\n"
    )
    assert main(["run", str(cfg), "-o", str(tmp_path / "out.csv")]) == 0
    assert "long runtime" in capsys.readouterr().err


def test_run_solve_scenario(tmp_path, fig_top):
    cfg = tmp_path / "solve.cfg"
    out = tmp_path / "lines.txt"
    cfg.write_text(
        f"scenario = solve\ntopology = {fig_top}\nsrc = 0\ndst = 3\n"
        "backends = nm-general nm-l1 edijkstra ksp:1\n"
        "constraint = link 0 >= 5\nconstraint = path 0 < 5\n"
        f"output = {out}\n"
    )
    assert main(["run", str(cfg)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("status=ok hops=3 path=X,B,A,Y")
    assert lines[3].startswith("status=infeasible")


SOLVE_CFG = "scenario = solve\ntopology = {top}\nsrc = 0\n"
BAD_TOP = "nodes 2 link_metrics 1 path_metrics 1\nedge 0 1 5\n"
# sweep cells bound link metric 0 and path metric 0; these files lack one
NOPATH_TOP = "nodes 3 link_metrics 1 path_metrics 0\nedge 0 1 5\nedge 1 2 5\nedge 2 0 5\n"
NOLINK_TOP = "nodes 3 link_metrics 0 path_metrics 1\nedge 0 1 1\nedge 1 2 1\nedge 2 0 1\n"


@pytest.mark.parametrize(
    "body, jobs, code",
    [
        (SOLVE_CFG + "dst = 9\n", 1, 3),  # node id outside the 4-node topology
        # nm-general answers, then nm-l1 without a path bound stops the run
        (SOLVE_CFG + "dst = 3\nbackends = nm-general nm-l1\nconstraint = link 0 >= 5\n", 1, 2),
        (SOLVE_CFG + "dst = 3\nconstraint = bogus\n", 1, 3),
        (SOLVE_CFG + "dst = 3\nbackends = nm-general\nconstraint = link 3 >= 1\n", 1, 3),
        ("scenario = solve\ntopology = {missing}\nsrc = 0\ndst = 3\n", 1, 3),
        ("scenario = steering\ntopology = {missing}\n", 1, 3),
        # two cells at --jobs 2: the parse error comes back from a worker process
        ("scenario = steering\ntopology = {bad}\nseeds = 1 2\n", 2, 3),
        ("scenario = steering\nnodes = 30\ndegrees = 3 nan\n", 1, 2),
        ("scenario = steering\nnodes = 30\ndelay_percents = 100 inf\n", 1, 2),
        ("scenario = steering\nnodes = 30\npairs = -3\n", 1, 2),
        ("scenario = steering\nnodes = 0\n", 1, 2),
        ("scenario = vne\nnodes = 30\ndemand_max = -5\n", 1, 2),
        ("scenario = steering\nnodes = 30\nseeds =\n", 1, 2),
        ("scenario = steering\nnodes = 30\nbackends =\n", 1, 2),
        # 13 pairs > 4 * 3 on the 4-node topology, known only once it is loaded
        ("scenario = steering\ntopology = {top}\npairs = 13\n", 1, 2),
        ("scenario = steering\ntopology = {top}\npairs = 13\nseeds = 1 2\n", 2, 2),
        ("scenario = steering\ntopology = {nopath}\npairs = 2\n", 1, 3),
        ("scenario = steering\ntopology = {nolink}\npairs = 2\nseeds = 1 2\n", 2, 3),
        ("scenario = vne\ntopology = {nolink}\nrequests = 2\nrequest_nodes = 2\n", 1, 3),
        ("scenario = vne\ntopology = {nopath}\nrequests = 2\nrequest_nodes = 2\n"
         "seeds = 1 2\n", 2, 3),
    ],
    ids=["solve-node-out-of-range", "solve-l1-without-path", "solve-bad-constraint",
         "solve-bound-beyond-arity", "solve-missing-topology", "steering-missing-topology",
         "steering-unparsable-topology-jobs-2", "nan-degree", "inf-delay-percent",
         "negative-pairs", "zero-nodes", "negative-demand-max", "empty-seeds",
         "empty-backends", "too-many-pairs", "too-many-pairs-jobs-2",
         "steering-no-path-metric", "steering-no-link-metric-jobs-2",
         "vne-no-link-metric", "vne-no-path-metric-jobs-2"],
)
def test_run_bad_input_is_one_line_error(tmp_path, fig_top, body, jobs, code):
    files = {}
    for name, text in (("bad", BAD_TOP), ("nopath", NOPATH_TOP), ("nolink", NOLINK_TOP)):
        files[name] = tmp_path / f"{name}.top"
        files[name].write_text(text)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(body.format(top=fig_top, missing=tmp_path / "none.top", **files))
    out = tmp_path / "out.txt"
    proc = _cli("run", str(cfg), "-o", str(out), "--jobs", str(jobs))
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_steering_on_an_edgeless_topology_routes_nothing(tmp_path, jobs):
    # its largest link delay is 0.0, so every pair is simply unreachable
    top = tmp_path / "edgeless.top"
    top.write_text("nodes 3 link_metrics 1 path_metrics 1\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"scenario = steering\ntopology = {top}\npairs = 4\nseeds = 1 2\n"
        "backends = nm-l1 edijkstra\n"
    )
    out = tmp_path / "out.csv"
    proc = _cli("run", str(cfg), "-o", str(out), "--jobs", str(jobs))
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    header, *rows = out.read_text().splitlines()
    cols = header.split(",")
    assert len(rows) == 4  # nm-l1 and edijkstra, two seeds
    for row in rows:
        cells = dict(zip(cols, row.split(",")))
        assert cells["throughput_gbps"] == "0" and cells["n_used"] == "0"


def test_run_missing_output_directory_is_one_line_error(tmp_path):
    # checked before the sweep, so a bad -o costs no run
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("scenario = steering\nnodes = 30\npairs = 2\n")
    proc = _cli("run", str(cfg), "-o", str(tmp_path / "nodir" / "out.csv"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert "nodir" in proc.stderr
    assert proc.stdout == ""


def test_run_config_path_is_a_directory_is_one_line_error(tmp_path):
    (tmp_path / "cfgdir").mkdir()
    proc = _cli("run", str(tmp_path / "cfgdir"), "-o", str(tmp_path / "out.csv"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert "cfgdir" in proc.stderr
    assert not (tmp_path / "out.csv").exists()


def test_run_output_path_is_a_directory_is_one_line_error(tmp_path):
    # checked before the sweep, like a missing output directory
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("scenario = steering\nnodes = 30\npairs = 2\n")
    (tmp_path / "adir").mkdir()
    proc = _cli("run", str(cfg), "-o", str(tmp_path / "adir"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert "adir" in proc.stderr
    assert proc.stdout == ""


def test_console_script_help():
    proc = _cli("--help")
    assert proc.returncode == 0
    assert "gen" in proc.stdout and "solve" in proc.stdout and "run" in proc.stdout
