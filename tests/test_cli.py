import numpy as np
import pytest

from rabitri import ModelParams
from rabitri.cli import main
from rabitri.scaling import _collect_above


def run(monkeypatch, tmp_path, *argv):
    monkeypatch.chdir(tmp_path)
    return main(list(argv))


def load_csv(path, skip):
    return np.loadtxt(str(path), delimiter=",", skiprows=skip)


def test_phase_boundary_decoupled_ring(monkeypatch, tmp_path, capsys):
    rc = run(monkeypatch, tmp_path, "phase-boundary", "--j", "0",
             "--points", "5", "--out", "pb.csv")
    assert rc == 0
    data = load_csv(tmp_path / "pb.csv", 3)
    assert data.shape == (5, 3)
    assert data[:, 1] == pytest.approx([0.5] * 5, abs=1e-14)
    assert "theta_c" in capsys.readouterr().out


def test_phase_boundary_frozen_triple_point(monkeypatch, tmp_path):
    run(monkeypatch, tmp_path, "phase-boundary", "--points", "3",
        "--out", "pb.csv")
    text = (tmp_path / "pb.csv").read_text()
    assert "# theta_c = 1.6205693443218139" in text


def test_meanfield_stdout(monkeypatch, tmp_path, capsys):
    rc = run(monkeypatch, tmp_path, "meanfield", "--theta", "0",
             "--g1", "0.55")
    assert rc == 0
    out = capsys.readouterr().out
    assert "# phase = antiferromagnetic" in out
    assert "site,A,B" in out
    row1 = [ln for ln in out.splitlines() if ln.startswith("1,")][0]
    assert float(row1.split(",")[1]) == pytest.approx(3.9037049211943899,
                                                      rel=1e-9)


def test_fluctuations_below_is_site_uniform(monkeypatch, tmp_path):
    rc = run(monkeypatch, tmp_path, "fluctuations", "--theta", "1.7",
             "--window-min", "0.5", "--window-max", "0.9",
             "--points", "5", "--out", "f.csv")
    assert rc == 0
    data = load_csv(tmp_path / "f.csv", 3)
    assert data.shape == (5, 12)
    assert np.max(np.abs(data[:, 1] - data[:, 2])) <= 1e-14
    assert np.max(np.abs(data[:, 1] - data[:, 3])) <= 1e-14


def test_fluctuations_skips_critical_point(monkeypatch, tmp_path):
    rc = run(monkeypatch, tmp_path, "fluctuations", "--theta", "0",
             "--window-min", "0.96", "--window-max", "1.04",
             "--points", "5", "--out", "f.csv")
    assert rc == 0
    text = (tmp_path / "f.csv").read_text()
    assert "# g1 = g1c skipped (critical point)" in text
    rows = [ln for ln in text.splitlines()
            if ln and not ln.startswith(("#", "g1,"))]
    assert len(rows) == 4
    # above the transition the distinguished site separates from the pair
    top = np.array([float(x) for x in rows[-1].split(",")])
    assert abs(top[1] - top[2]) > 1e-3
    assert abs(top[2] - top[3]) < 1e-9


def test_fluctuations_near_critical_rows_follow_the_continuation(
        monkeypatch, tmp_path):
    # rows within 1e-5 of g1c need the 50-digit continuation; a cold
    # float64 solve per row misses eps1 there by more than an order of
    # magnitude
    rc = run(monkeypatch, tmp_path, "fluctuations", "--theta", "0.1",
             "--window-min", "1.000001", "--window-max", "1.00001",
             "--points", "5", "--out", "f.csv")
    assert rc == 0
    data = load_csv(tmp_path / "f.csv", 3)
    base = ModelParams(omega=1.0, delta=100.0, g1=0.1, j_hop=0.05, theta=0.1)
    deltas = [float(r) - 1.0 for r in np.linspace(1.000001, 1.00001, 5)]
    ref = _collect_above(base, deltas)
    assert data.shape == (5, 12)
    for row, d in zip(data, deltas):
        o = ref[d]
        want = [*o["photon_n"], *o["var_x"], *o["var_p"], o["eps1"],
                o["eps2"]]
        assert row[1:] == pytest.approx(want, rel=1e-8)


def test_spectrum_has_three_branches(monkeypatch, tmp_path):
    rc = run(monkeypatch, tmp_path, "spectrum", "--theta", "0.5",
             "--window-min", "0.8", "--window-max", "0.99",
             "--points", "4", "--out", "s.csv")
    assert rc == 0
    data = load_csv(tmp_path / "s.csv", 3)
    assert data.shape == (4, 4)
    assert np.all(data[:, 1] <= data[:, 2]) and np.all(data[:, 2] <= data[:, 3])


@pytest.mark.filterwarnings("ignore::rabitri.TruncationWarning")
def test_dynamics_short_run(monkeypatch, tmp_path, capsys):
    rc = run(monkeypatch, tmp_path, "dynamics", "--nmax", "2",
             "--tfinal", "2", "--out", "d.csv")
    assert rc == 0
    out = capsys.readouterr().out
    assert "chirality = " in out
    data = load_csv(tmp_path / "d.csv", 3)
    assert data.shape == (21, 5)
    assert np.max(np.abs(data[:, 2] - data[:, 3])) <= 1e-12   # theta = 0
    assert np.max(np.abs(data[:, 4] - 1.0)) <= 1e-10
    header = (tmp_path / "d.csv").read_text().splitlines()
    assert header[0].startswith("# dynamics ")
    assert header[1].startswith("# chirality = ")


def test_gnuplot_companion(monkeypatch, tmp_path):
    rc = run(monkeypatch, tmp_path, "spectrum", "--theta", "0.5",
             "--window-min", "0.8", "--window-max", "0.9",
             "--points", "3", "--out", "s.csv", "--gnuplot")
    assert rc == 0
    gp = (tmp_path / "s.csv.gp").read_text()
    assert "set datafile separator" in gp
    assert "'s.csv' using 1:2" in gp


def test_config_precedence(monkeypatch, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta = 0.5   # flux\npoints = 3\n")
    rc = run(monkeypatch, tmp_path, "spectrum", "--config", str(cfg),
             "--points", "4", "--window-min", "0.8",
             "--window-max", "0.9", "--out", "s.csv")
    assert rc == 0
    head = (tmp_path / "s.csv").read_text().splitlines()[0]
    assert "theta=0.5" in head     # config beats default
    assert "points=4" in head      # flag beats config
    data = load_csv(tmp_path / "s.csv", 3)
    assert data.shape == (4, 4)


def test_runs_are_reproducible(monkeypatch, tmp_path):
    args = ("meanfield", "--theta", "0.1", "--g1", "0.52", "--out", "mf.csv")
    run(monkeypatch, tmp_path, *args)
    first = (tmp_path / "mf.csv").read_bytes()
    run(monkeypatch, tmp_path, *args)
    assert (tmp_path / "mf.csv").read_bytes() == first


def test_exponents_csv(monkeypatch, tmp_path, capsys):
    rc = run(monkeypatch, tmp_path, "exponents", "--theta", "1.7",
             "--out", "e.csv")
    assert rc == 0
    out = capsys.readouterr().out
    assert "transition NP-FSP" in out
    lines = (tmp_path / "e.csv").read_text().splitlines()
    assert lines[0].startswith("# exponents ")
    assert lines[3] == ("transition,quantity,site,side,exponent,r2,"
                        "delta_min,delta_max")
    rows = [ln.split(",") for ln in lines[4:]]
    eps1_below = [r for r in rows if r[1] == "eps1" and r[3] == "below"][0]
    assert float(eps1_below[4]) == pytest.approx(0.5, abs=0.03)
    # variance rows are stored in the table convention (half the log slope)
    vx = [r for r in rows if r[1] == "var_x" and r[3] == "below"][0]
    assert float(vx[4]) == pytest.approx(0.25, abs=0.03)


@pytest.mark.parametrize("argv", [
    ["dynamics", "--omega", "-1"],
    ["dynamics", "--nmax", "0"],
    ["spectrum", "--window-min", "0.9", "--window-max", "0.5"],
    ["phase-boundary", "--points", "1"],
    ["dynamics", "--tfinal", "inf"],
    ["dynamics", "--tfinal", "nan"],
])
def test_bad_flags_exit_2(monkeypatch, tmp_path, argv, capsys):
    assert run(monkeypatch, tmp_path, *argv) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_exits_2(monkeypatch, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nmax = 4\n")    # not a phase-boundary key
    rc = run(monkeypatch, tmp_path, "phase-boundary", "--config", str(cfg))
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err


def test_malformed_config_exits_2(monkeypatch, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just words\n")
    rc = run(monkeypatch, tmp_path, "phase-boundary", "--config", str(cfg))
    assert rc == 2


def test_numerical_failure_exits_3(monkeypatch, tmp_path, capsys):
    # nmax passes flag validation but the basis exceeds the dimension cap
    rc = run(monkeypatch, tmp_path, "dynamics", "--nmax", "50",
             "--out", "d.csv")
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(monkeypatch, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(monkeypatch, tmp_path, "frobnicate")
    assert exc.value.code == 2
