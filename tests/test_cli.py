import os
import subprocess
import sys
from pathlib import Path

import pytest

from vpembed import ConstraintSet, GenSpec, PathResult, generate, topofile
from vpembed.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _child(*args):
    """Run python with args in a child process that imports vpembed from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def _cli(*argv):
    """Run the CLI in a child process, so an uncaught exception shows as a
    traceback on stderr instead of failing inside the test."""
    return _child("-m", "vpembed.cli", *argv)

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


def test_gen_without_flags_writes_the_default_spec(tmp_path):
    out = tmp_path / "x.top"
    assert main(["gen", "-o", str(out)]) == 0
    assert out.read_text() == topofile.dumps(generate(GenSpec()))


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


@pytest.mark.parametrize(
    "flags",
    [
        ["--degree", "nan"],
        ["--degree", "inf"],
        ["--bw-low", "nan"],
        ["--bw-high", "inf"],
        ["--delay-model", "uniform", "--delay-high", "inf"],
        ["--max-delay", "nan"],
        ["--max-delay", "inf"],
        ["--delay-low", "5", "--delay-high", "1"],
    ],
    ids=["degree-nan", "degree-inf", "bw-low-nan", "bw-high-inf", "delay-high-inf",
         "max-delay-nan", "max-delay-inf", "delay-range-reversed"],
)
def test_gen_refuses_non_finite_or_reversed_flags(tmp_path, flags):
    out = tmp_path / "x.top"
    proc = _cli("gen", "--nodes", "50", *flags, "-o", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("vpembed gen: invalid flags: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--seed", "-1"], "seed"),
        (["--bw-low", "-3", "--bw-high", "-1"], "bw_range"),
        (["--model", "barabasi_albert", "--m", "0"], "m must"),
        (["--model", "barabasi_albert", "--m", "60"], "m must"),
        (["--degree", "0"], "degree"),
        (["--degree", "-1"], "degree"),
        (["--model", "barabasi_albert", "--degree", "0"], "degree"),
        (["--model", "barabasi_albert", "--degree", "-1"], "degree"),
        # m = round(200 / 2) = 100 attachments cannot fit 50 nodes
        (["--model", "barabasi_albert", "--degree", "200"], "degree target 200.0"),
        # m = 49 attachments fit, but 49 links realize degree 1.96, not 98
        (["--model", "barabasi_albert", "--degree", "98"], "degree target 98.0 unreachable"),
    ],
    ids=["seed-negative", "bw-negative", "m-zero", "m-above-nodes", "degree-zero",
         "degree-negative", "ba-degree-zero", "ba-degree-negative", "ba-degree-beyond-nodes",
         "ba-degree-unrealized"],
)
def test_gen_refuses_out_of_range_flags(tmp_path, flags, named):
    # refused before generation, not by numpy or by the first drawn link
    out = tmp_path / "x.top"
    proc = _cli("gen", "--nodes", "50", *flags, "-o", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("vpembed gen: invalid flags: ") and named in proc.stderr
    assert not out.exists()


def test_gen_missing_output_directory_is_one_line_error(tmp_path):
    # checked before generation, as for run
    proc = _cli("gen", "--nodes", "50", "-o", str(tmp_path / "nodir" / "x.top"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert "nodir" in proc.stderr
    assert proc.stdout == ""


def test_gen_unwritable_output_is_one_line_error(tmp_path):
    # the directory exists, so only the write itself finds the name too long
    proc = _cli("gen", "--nodes", "30", "-o", str(tmp_path / ("t" * 300)))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("vpembed gen: ")
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


def test_solve_nan_node_capacity_is_parse_error(tmp_path):
    top = tmp_path / "nan-cap.top"
    top.write_text("nodes 2 link_metrics 1 path_metrics 1\nnode 0 cap nan\nedge 0 1 5 5\n")
    proc = _cli("solve", "--topology", str(top), "--src", "0", "--dst", "1")
    assert proc.returncode == 3
    assert proc.stdout == ""
    message = f"vpembed solve: {top}: line 2: node 0 capacity must be >= 0, got nan"
    assert proc.stderr.splitlines() == [message]


def test_gen_negative_cpu_exit_2(tmp_path, capsys):
    code = main(["gen", "--nodes", "10", "--cpu", "-5", "-o", str(tmp_path / "x.top")])
    assert code == 2
    assert "cpu_units must be >= 0" in capsys.readouterr().err


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
        (["--dst", "3", "--path", "bogus"], 3),
        # the last --topology wins, so this names a file that does not exist
        (["--dst", "3", "--topology", "{missing}"], 3),
        # nodes 1 and 2 of this topology are both labelled b
        (["--dst", "b", "--topology", "{twins}"], 3),
    ],
    ids=["l1-without-path", "node-out-of-range", "duplicate-path-bound", "nan-link-bound",
         "nan-path-bound", "bound-beyond-arity", "bad-bound-literal", "missing-topology",
         "ambiguous-label"],
)
def test_solve_bad_query_is_one_line_error(tmp_path, fig_top, extra, code):
    twins = tmp_path / "twins.top"
    twins.write_text(
        "nodes 3 link_metrics 1 path_metrics 1\n"
        "node 0 cap 1 # a\nnode 1 cap 1 # b\nnode 2 cap 1 # b\n"
        "edge 0 1 5 1\nedge 0 2 5 1\n"
    )
    extra = [arg.format(missing=tmp_path / "none.top", twins=twins) for arg in extra]
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


@pytest.mark.parametrize("flags, strict", [((), True), (("--non-strict",), False)])
def test_solve_hands_the_backend_the_strictness_of_its_flags(tmp_path, monkeypatch, flags,
                                                             strict):
    top = tmp_path / "edge.top"
    top.write_text("nodes 2 link_metrics 1 path_metrics 1\nedge 0 1 9 5\n")
    seen = []

    def backend(g, src, dst, c):
        seen.append(c)
        return PathResult.trivial(src, g.link_arity, g.path_arity)

    monkeypatch.setattr("vpembed.cli.resolve_backend", lambda name: backend)
    assert main(["solve", "--topology", str(top), "--src", "0", "--dst", "1",
                 "--link", "0 >= 2", "--path", "0 < 5", *flags]) == 0
    assert seen == [ConstraintSet(((0, 2.0),), ((0, 5.0),), strict=strict)]
    assert seen[0].strict is strict


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


@pytest.mark.parametrize(
    "axes, key",
    [
        ("degrees = 4\nbw_levels = low high\ndelay_levels = high\n", "bw_levels"),
        ("degrees = 4\nbw_levels = low\ndelay_levels = high low\n", "delay_levels"),
        ("degrees = 3 4\nbw_levels = low\ndelay_percents = 100 50\n", "degrees"),
    ],
)
def test_run_emit_plotdata_refuses_an_axis_it_would_average(tmp_path, capsys, axes, key):
    # a plot-data point is the mean of every row at its x value, so only
    # seeds may vary beside x: bw_levels = low high with delay_levels =
    # high low used to average four cells into one point
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("scenario = steering\nnodes = 30\nseeds = 1 2\npairs = 3\n" + axes)
    out = tmp_path / "a.csv"
    assert main(["run", str(cfg), "-o", str(out), "--emit-plotdata"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and key in err
    assert not out.exists()
    # the same sweep runs without plot data
    assert main(["run", str(cfg), "-o", str(out)]) == 0


def test_run_refuses_a_key_its_sweep_would_not_read(tmp_path, fig_top, capsys):
    # a file sweep has no degree axis: each degree used to rerun every cell
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"scenario = steering\ntopology = {fig_top}\npairs = 2\ndegrees = 3 5\n")
    out = tmp_path / "x.csv"
    assert main(["run", str(cfg), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("vpembed run: bad config: degrees") and len(err.splitlines()) == 1
    assert not out.exists()


BAD_TOP = "nodes 2 link_metrics 1 path_metrics 1\nedge 0 1 5\n"
# sweep cells bound link metric 0 and path metric 0; these files lack one
NOPATH_TOP = "nodes 3 link_metrics 1 path_metrics 0\nedge 0 1 5\nedge 1 2 5\nedge 2 0 5\n"
NOLINK_TOP = "nodes 3 link_metrics 0 path_metrics 1\nedge 0 1 1\nedge 1 2 1\nedge 2 0 1\n"


@pytest.mark.parametrize(
    "body, jobs, code",
    [
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
    ids=["steering-missing-topology", "steering-unparsable-topology-jobs-2", "nan-degree",
         "inf-delay-percent", "negative-pairs", "zero-nodes", "negative-demand-max",
         "empty-seeds", "empty-backends", "too-many-pairs", "too-many-pairs-jobs-2",
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


@pytest.mark.parametrize(
    "body, named",
    [
        ("scenario = steering\nnodes = 30\npairs = 2\nseeds = -1\n", "seeds"),
        ("scenario = vne\nnodes = 30\nrequests = 2\nseeds = 1 -2\n", "seeds"),
        ("scenario = steering\nnodes = 30\npairs = 2\ndegrees = 0\n", "degrees"),
        ("scenario = steering\nnodes = 30\npairs = 2\ndegrees = 4 -1\n", "degrees"),
        # with a topology file, seeds feed only random.Random, which takes negatives
        ("scenario = steering\ntopology = {top}\npairs = 2\nseeds = -1\n", None),
        ("scenario = steering\nmodel = foo\nnodes = 30\npairs = 2\n", "model"),
        # the second degree's attachment count, round(60 / 2) = 30, needs more than 30 nodes
        ("scenario = vne\nmodel = barabasi_albert\nnodes = 30\ndegrees = 4 60\n",
         "degrees: degree target 60.0 needs attachment count m=30, "
         "but 30 nodes allow at most m=29"),
        # m = 20 fits 30 nodes, but its 200 links realize degree 13.33, not 40
        ("scenario = vne\nmodel = barabasi_albert\nnodes = 30\ndegrees = 4 40\n",
         "degrees: degree target 40.0 unreachable: attachment count m=20 realizes only 13.33"),
    ],
    ids=["steering-seed-negative", "vne-seed-negative", "degree-zero", "degree-negative",
         "topology-seed-negative-accepted", "unknown-model", "ba-degree-beyond-nodes",
         "ba-degree-unrealized"],
)
def test_run_refuses_out_of_range_generator_entries(tmp_path, fig_top, body, named):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(body.format(top=fig_top))
    out = tmp_path / "out.csv"
    proc = _cli("run", str(cfg), "-o", str(out))
    assert "Traceback" not in proc.stderr
    if named is None:
        assert proc.returncode == 0 and out.exists()
        return
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("vpembed run: bad config: ") and named in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_generation_failure_is_exit_3(tmp_path, jobs):
    # 3 nodes hold at most 3 links, fewer than a degree-4 target's 6; the
    # error is raised by the generator, in a worker process at --jobs 2
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("scenario = steering\nnodes = 3\ndegrees = 4\npairs = 2\nseeds = 1 2\n")
    out = tmp_path / "out.csv"
    proc = _cli("run", str(cfg), "-o", str(out), "--jobs", str(jobs))
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("vpembed run: generation failed: ")
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


@pytest.mark.parametrize("blocked", ["csv", "plotdata"])
def test_run_unwritable_output_is_one_line_error(tmp_path, blocked):
    # a name too long for the file system, or a directory where a plot-data
    # file goes: only the write after the sweep finds either
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("scenario = steering\nnodes = 30\npairs = 2\nbackends = nm-l1\nseeds = 0\n")
    out = tmp_path / ("o" * 300 if blocked == "csv" else "out.csv")
    (tmp_path / "throughput_nm-l1.dat").mkdir()
    proc = _cli("run", str(cfg), "-o", str(out), "--emit-plotdata")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("vpembed run: ")


# --- what a process loads --------------------------------------------------------

# Runs the CLI the way a one-query process does (`python -m vpembed.cli`,
# through runpy), or only `import vpembed` when no arguments are given, and
# then prints the name of every module in sys.modules on one last line.
LOADED_CHILD = """\
import runpy, sys
argv = sys.argv[1:]
try:
    if argv:
        runpy.run_module("vpembed.cli", run_name="__main__", alter_sys=True)
    else:
        import vpembed
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(" ".join(sys.modules))
"""


def _loaded_by(*argv, watch=("numpy", "concurrent.futures.process")):
    """Which of the watched modules the child loaded, in watch order."""
    proc = _child("-c", LOADED_CHILD, *argv)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    return [m for m in watch if m in loaded]


def test_import_and_solve_load_neither_numpy_nor_the_process_pool(fig_top):
    # numpy is needed only to generate a topology, the pool only by a
    # parallel sweep; a one-query process pays for neither
    assert _loaded_by() == []
    assert _loaded_by("solve", "--topology", fig_top, "--src", "0", "--dst", "3",
                      "--backend", "nm-l1", "--path", "0 < 5") == []


def test_import_of_the_cli_loads_neither_dataclasses_nor_inspect():
    # the records a query builds are namedtuples: dataclasses, with the
    # inspect it imports, would be a solve child's largest import. Only what
    # the import adds to a bare interpreter counts, so a site hook that
    # loads either module does not fail this.
    show = "import sys; print(' '.join(sys.modules))"
    bare = set(_child("-c", show).stdout.split())
    loaded = set(_child("-c", "import vpembed.cli; " + show).stdout.split())
    assert "vpembed.cli" in loaded
    assert {"dataclasses", "inspect"} & (loaded - bare) == set()


def test_only_gen_and_run_load_the_generator_and_the_sweep_drivers(fig_top, tmp_path):
    # vpembed re-exports harness's and topogen's names lazily, and the CLI
    # imports each where the one subcommand that reads it runs
    watch = ("vpembed.harness", "vpembed.topogen")
    assert _loaded_by(watch=watch) == []
    assert _loaded_by("solve", "--topology", fig_top, "--src", "X", "--dst", "Y",
                      "--path", "0 < 5", watch=watch) == []
    out = str(tmp_path / "t.top")
    assert _loaded_by("gen", "--nodes", "30", "--degree", "3", "--seed", "1", "-o", out,
                      watch=watch) == ["vpembed.topogen"]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"scenario = steering\ntopology = {out}\npairs = 2\nbackends = nm-l1\n"
                   "seeds = 0\n")
    assert "vpembed.harness" in _loaded_by("run", str(cfg), "-o", str(tmp_path / "o.csv"),
                                           watch=watch)


def test_gen_loads_numpy(tmp_path):
    out = str(tmp_path / "t.top")
    assert _loaded_by("gen", "--nodes", "30", "--degree", "3", "--seed", "1", "-o", out) == [
        "numpy"
    ]


def test_console_script_help():
    proc = _cli("--help")
    assert proc.returncode == 0
    assert "gen" in proc.stdout and "solve" in proc.stdout and "run" in proc.stdout


def test_every_public_name_is_its_defining_modules_object(monkeypatch):
    import importlib

    import vpembed
    from vpembed import harness, topogen

    for name in vpembed.__all__:
        obj = getattr(vpembed, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    star = {}
    exec("from vpembed import *", star)
    assert all(star[name] is getattr(vpembed, name) for name in vpembed.__all__)
    assert set(vpembed.__all__) <= set(dir(vpembed))
    with pytest.raises(AttributeError, match="no_such_name"):
        vpembed.no_such_name
    # a lazy name is looked up on each access, so it follows a rebinding
    # in its module and is never stored in the package
    for module, name in ((harness, "sweep"), (topogen, "generate")):
        assert name not in vars(vpembed)
        stand_in = object()
        monkeypatch.setattr(module, name, stand_in)
        assert getattr(vpembed, name) is stand_in
