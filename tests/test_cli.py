import contextlib
import io
import math
import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rabitri import ModelParams
from rabitri.cli import main
from rabitri.model import critical_coupling_min
from rabitri.scaling import observables_near

from conftest import lose_the_root


def run(monkeypatch, tmp_path, *argv):
    monkeypatch.chdir(tmp_path)
    return main(list(argv))


def load_csv(path, skip):
    return np.loadtxt(str(path), delimiter=",", skiprows=skip)


def run_quiet(argv):
    """(exit code, stderr, lines of the table) of `rabitri *argv`, with the
    table written to a temporary file."""
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        out = os.path.join(tmp, "out.csv")
        rc = main([*argv, "--out", out])
        if rc != 0:
            return rc, err.getvalue(), []
        with open(out) as fh:
            return rc, err.getvalue(), fh.read().splitlines()


# the cells in the unit of energy: CSV columns of the data rows of the two
# scans, and the comment lines of `meanfield`
_ENERGY_COLUMNS = {"fluctuations": (10, 11), "spectrum": (1, 2, 3)}
_ENERGY_COMMENTS = ("# energy = ", "# residual_norm = ")


def assert_unit_free(cmd, omega, delta, j, *flags):
    """`rabitri cmd` at (omega, delta, j) writes the table of omega = 1 at
    the flags delta/omega and j/omega, with its energies times omega, or
    both runs exit 3 with an `error:` line. The energies are exact
    products, and every other cell is the same."""
    unit = ["--omega", repr(omega), "--j", repr(j)]
    ref = ["--omega", "1.0", "--j", repr(j / omega)]
    if cmd != "phase-boundary":
        unit += ["--delta", repr(delta)]
        ref += ["--delta", repr(delta / omega)]
    rc, err, got = run_quiet([cmd, *unit, *flags])
    rc1, _, want = run_quiet([cmd, *ref, *flags])
    assert rc == rc1
    if rc != 0:
        assert rc == 3 and err.startswith("error:")
        return
    assert len(got) == len(want)
    # the first line records the flags, and `exponents` repeats them
    for a, b in zip(got[1:], want[1:]):
        if a.startswith("# omega="):
            continue
        if a.startswith(_ENERGY_COMMENTS):
            name, value = a.split(" = ")
            assert b.startswith(name)
            assert float(value) == float(b.split(" = ")[1]) * omega
        elif cmd in _ENERGY_COLUMNS and a[:1].isdigit():
            for k, (x, y) in enumerate(zip(a.split(","), b.split(","))):
                if k in _ENERGY_COLUMNS[cmd]:
                    assert float(x) == float(y) * omega
                else:
                    assert x == y
        else:
            assert a == b


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
    ref = observables_near(base, deltas)
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


# every line after the resolved-config line of three scan-path calls, as
# written at `.17g`: the cold multi-start, the float64 continuation and
# the stacked Bogoliubov step may be made cheaper, never different
_FROZEN_OUTPUT = {
    ('fluctuations', '--theta', '0.5', '--points', '6', '--seed', '4'): [
        '# g1c = 0.48844597766361819',
        'g1,n1,n2,n3,vx1,vx2,vx3,vp1,vp2,vp3,eps1,eps2',
        '0.46402367878043727,0.30230803553338426,0.30230803553338426,'
        '0.30230803553338426,2.847155097137636,2.847155097137636,'
        '2.847155097137636,0.36207704499590121,0.36207704499590121,'
        '0.36207704499590121,0.25962349274429364,0.342662431875149',
        '0.47379259833370962,0.4509206384471624,0.4509206384471624,'
        '0.4509206384471624,3.4999440032890958,3.4999440032890958,'
        '3.4999440032890958,0.30373855049955462,0.30373855049955462,'
        '0.30373855049955462,0.19438149004179081,0.2774204291726462',
        '0.48356151788698198,0.90853843430875625,0.90853843430875625,'
        '0.90853843430875625,5.4110572723701473,5.4110572723701473,'
        '5.4110572723701473,0.22309646486487844,0.22309646486487844,'
        '0.22309646486487844,0.099482257850468575,0.18252119698132394',
        '0.4933304374402544,1.8968305663511067,2.0123080350613982,'
        '2.012308035061384,3.7284618915743835,8.0581721369362977,'
        '8.0581721369361983,0.30197842335398356,0.18414632025878822,'
        '0.18414632025878983,0.067111653046093372,0.20119241979508676',
        '0.5030993569935267,4.2212344805788806,2.338006069510747,'
        '2.3380060695107527,2.3935169223424491,3.7762853236736924,'
        '3.7762853236736795,0.43056942035035628,0.28309637512941177,'
        '0.28309637512941288,0.19404182914101467,0.31729300260914611',
        '0.51286827654679912,6.5529942135422514,3.7711675706105634,'
        '3.7711675706105545,1.9864306174960431,2.7750757140515709,'
        '2.7750757140515776,0.50987190545086314,0.36863880867455395,'
        '0.36863880867455323,0.29039650262163802,0.4013848997595767',
    ],
    ('spectrum', '--theta', '2.0', '--points', '6', '--seed', '2'): [
        '# g1c = 0.48948578026978623',
        'g1,eps1,eps2,eps3',
        '0.46501149125629687,0.29925571911353643,0.32013562566046383,'
        '0.47763055990583625',
        '0.47480120686169264,0.2329881814643128,0.26987836933643017,'
        '0.42737330358180259',
        '0.48459092246708835,0.13519688624471529,0.20967854517788007,'
        '0.36717347942325251',
        '0.49438063807248411,0.18931362288239506,0.24046223721630336,'
        '0.39795717146167564',
        '0.50417035367787988,0.32003892848695947,0.3369651353085743,'
        '0.49446006955394683',
        '0.51396006928327553,0.40354455144856538,0.40825949029953484,'
        '0.5657544245449071',
    ],
    ('meanfield', '--theta', '0', '--seed', '3'): [
        '# phase = antiferromagnetic',
        '# energy = -162.28577118906318',
        '# residual_norm = 6.3751087742147661e-16',
        'site,A,B',
        '1,5.0760036587939963,0',
        '2,-4.3834336285020372,0',
        '3,-4.3834336285020363,0',
    ],
}


@pytest.mark.parametrize("argv", list(_FROZEN_OUTPUT))
def test_scan_path_output_is_frozen(argv):
    rc, err, lines = run_quiet(list(argv))
    assert rc == 0 and err == ""
    assert lines[1:] == _FROZEN_OUTPUT[argv]


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
    ["dynamics", "--out", "missing/x.csv"],
    ["meanfield", "--out", "missing/x.csv"],
    ["phase-boundary", "--out", "missing/x.csv"],
    ["phase-boundary", "--points", "2", "--out", "."],   # a directory
    ["meanfield", "--gnuplot"],          # writes no CSV to plot
    ["exponents", "--gnuplot"],
    # only meanfield, whose default is stdout, takes an empty --out
    ["dynamics", "--out", ""],
    ["phase-boundary", "--out", ""],
    ["fluctuations", "--out", ""],
    ["spectrum", "--out", ""],
    ["exponents", "--out", ""],
])
def test_bad_flags_exit_2(monkeypatch, tmp_path, argv, capsys):
    def no_compute(*args, **kwargs):
        raise AssertionError("computed before the flags were validated")

    for name in ("evolve", "critical_flux", "observables_near",
                 "exponent_report"):
        monkeypatch.setattr(f"rabitri.cli.{name}", no_compute)
    assert run(monkeypatch, tmp_path, *argv) == 2
    assert "error:" in capsys.readouterr().err


def test_out_directory_rejected_before_computing(monkeypatch, tmp_path,
                                                 capsys):
    def no_evolve(*args, **kwargs):
        raise AssertionError("evolve ran before --out was validated")

    monkeypatch.setattr("rabitri.cli.evolve", no_evolve)
    assert run(monkeypatch, tmp_path, "dynamics", "--out", ".") == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::rabitri.TruncationWarning")
def test_write_error_exits_2(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise PermissionError("permission denied: 'd.csv'")

    monkeypatch.setattr("rabitri.cli._write_csv", refuse)
    rc = run(monkeypatch, tmp_path, "dynamics", "--nmax", "2", "--tfinal",
             "0.2", "--out", "d.csv")
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_exits_2(monkeypatch, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    # nmax is no phase-boundary setting; fluctuations scans g1/g1c and
    # reads no g1
    for cmd, line in (("phase-boundary", "nmax = 4"),
                      ("fluctuations", "g1 = 0.3")):
        cfg.write_text(line + "\n")
        rc = run(monkeypatch, tmp_path, cmd, "--config", str(cfg))
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("cmd, line", [("fluctuations", "points = many"),
                                       ("meanfield", "seed = 1.5"),
                                       ("phase-boundary", "omega = one")])
def test_config_value_of_the_wrong_type_exits_2(monkeypatch, tmp_path,
                                                capsys, cmd, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    rc = run(monkeypatch, tmp_path, cmd, "--config", str(cfg))
    assert rc == 2
    assert "bad value for" in capsys.readouterr().err


@pytest.mark.parametrize("deep, window", [(False, ("1.001", "1.01")),
                                          (True, ("1.0000001", "1.00001"))])
def test_lost_continuation_root_exits_3(monkeypatch, tmp_path, capsys, deep,
                                        window):
    lose_the_root(monkeypatch, deep)
    rc = run(monkeypatch, tmp_path, "fluctuations", "--theta", "0.1",
             "--window-min", window[0], "--window-max", window[1],
             "--points", "2")
    assert rc == 3
    assert "lost the root" in capsys.readouterr().err
    assert not (tmp_path / "fluctuations.csv").exists()


def test_malformed_config_exits_2(monkeypatch, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just words\n")
    rc = run(monkeypatch, tmp_path, "phase-boundary", "--config", str(cfg))
    assert rc == 2


# numpy's default_rng raises an untyped ValueError on a negative seed, so
# the CLI must refuse one with the other bad settings
@pytest.mark.parametrize("cmd", ["meanfield", "fluctuations", "spectrum"])
def test_negative_seed_flag_exits_2(monkeypatch, tmp_path, cmd, capsys):
    rc = run(monkeypatch, tmp_path, cmd, "--seed", "-1", "--out", "o.csv")
    assert rc == 2
    assert "error: seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("cmd", ["meanfield", "fluctuations", "spectrum"])
def test_negative_seed_in_config_exits_2(monkeypatch, tmp_path, cmd, capsys):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = -3\n")
    rc = run(monkeypatch, tmp_path, cmd, "--config", str(cfg), "--out",
             "o.csv")
    assert rc == 2
    assert "error: seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_numerical_failure_exits_3(monkeypatch, tmp_path, capsys):
    # nmax passes flag validation but the basis exceeds the dimension cap
    rc = run(monkeypatch, tmp_path, "dynamics", "--nmax", "50",
             "--out", "d.csv")
    assert rc == 3
    assert "error:" in capsys.readouterr().err
    # the mean field has no root to continue to at g1 = g1c
    g1c = critical_coupling_min(ModelParams(omega=1.0, delta=100.0, g1=0.1,
                                            j_hop=0.05, theta=0.1))
    rc = run(monkeypatch, tmp_path, "meanfield", "--theta", "0.1",
             "--g1", repr(g1c))
    assert rc == 3
    assert "critical coupling" in capsys.readouterr().err
    # the mean-field equations do not depend on Delta/omega, so 1e103
    # answers; 16 g1^4 overflows float64 at g1 = 1e78
    rc = run(monkeypatch, tmp_path, "meanfield", "--delta", "1e103",
             "--g1", "0.6")
    assert rc == 0
    assert "\n1,1.6051732973137211e+51,0\n" in capsys.readouterr().out
    rc = run(monkeypatch, tmp_path, "meanfield", "--g1", "1e78")
    assert rc == 3
    assert "overflow" in capsys.readouterr().err
    assert run(monkeypatch, tmp_path, "meanfield", "--omega", "1e75",
               "--delta", "1e77", "--j", "5e73") == 0
    # at omega = 1e-300 ... 1e100 with Delta and J scaled with it, where
    # raw-unit equations underflowed or overflowed, the solvers run in
    # units of omega and write the tables of omega = 1
    for e, cmds in ((-300, ("fluctuations", "spectrum", "exponents")),
                    (-200, ("fluctuations", "spectrum", "exponents")),
                    (77, ("meanfield", "fluctuations", "spectrum",
                          "exponents")),
                    (100, ("meanfield", "fluctuations", "spectrum",
                           "exponents"))):
        for cmd in cmds:
            assert_unit_free(cmd, float(f"1e{e}"), float(f"1e{e + 2}"),
                             float(f"5e{e - 2}"),
                             *(["--points", "5"] if cmd in _ENERGY_COLUMNS
                               else []))


@pytest.mark.parametrize("flags, message", [
    (["--omega", "1e-10", "--delta", "1e300"],
     "delta/omega = 1e+300/1e-10 overflows float64"),
    (["--omega", "1e300", "--delta", "1e-300", "--j", "0"],
     "delta/omega = 1e-300/1e+300 underflows float64 to 0"),
])
def test_energy_ratio_outside_float64_exits_3(monkeypatch, tmp_path, capsys,
                                              flags, message):
    # every flag is a finite positive number; the ratio the solvers compute
    # in is not, and the error names the ratio
    rc = run(monkeypatch, tmp_path, "meanfield", *flags)
    assert rc == 3
    assert message in capsys.readouterr().err


def test_meanfield_at_a_tiny_energy_unit_finds_the_root(monkeypatch,
                                                        tmp_path, capsys):
    # omega = 1e-100: in raw units the Jacobian's curvature 4 g^2 Delta^2
    # underflowed and the solver returned the saddle A = B = 0; in units of
    # omega this is the run at Delta = fl(1e-98/1e-100)
    rows = []
    for flags in (["--omega", "1e-100", "--delta", "1e-98", "--j", "5e-102"],
                  ["--delta", "99.99999999999999", "--j", "0.05"]):
        assert run(monkeypatch, tmp_path, "meanfield", *flags, "--g1",
                   "0.4922") == 0
        out = capsys.readouterr().out.splitlines()
        assert "# phase = antiferromagnetic" in out
        rows.append([ln for ln in out if ln[:1].isdigit()])
    assert rows[0] == rows[1]
    assert rows[0][0].split(",")[1] == "1.180600264027035"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("g1, a1", [("3e4", 330143.54066985648),
                                     ("1e5", 1100478.4688995215),
                                     ("3e5", None), ("3e6", None),
                                     ("1e7", None), ("1e52", None),
                                     ("1e76", None)])
def test_meanfield_far_above_g1c_answers(monkeypatch, tmp_path, capsys, g1,
                                         a1):
    # the Newton stops are relative to max(1, max|x|), above the rounding
    # of the residual of a large root; far above g1c the root grows as g1,
    # so A_1/g1 agrees with its value at g1 = 3e4 (a1 pinned where an
    # absolute stop answered too; the origin, stationary but never the
    # minimum, is not returned in its place). From g1 ~ 1e51 the
    # Jacobian's d_n^3 overflows float64 and its curvature reads 0, its
    # limit, with no warning
    rows = []
    for g in ("3e4", g1):
        assert run(monkeypatch, tmp_path, "meanfield", "--g1", g) == 0
        out, err = capsys.readouterr()
        assert err == ""
        out = out.splitlines()
        assert "# phase = antiferromagnetic" in out
        rows.append(data_rows(out))
    got = float(rows[1][0][1])
    if a1 is not None:
        assert got == pytest.approx(a1, rel=1e-12)
    assert got / float(g1) == pytest.approx(float(rows[0][0][1]) / 3e4,
                                            rel=1e-12)


@pytest.mark.parametrize("argv, message", [
    (["meanfield"], "energy overflows"),
    (["fluctuations", "--theta", "0.5", "--points", "6", "--window-max", "3"],
     "photon number overflows"),
    pytest.param(["exponents", "--theta", "0.5"],
                 "amplitude of row (above, photon_n, 1) overflows float64 "
                 "at delta/omega=1.7e+308", id="argv2-amplitude overflows"),
])
def test_outputs_that_overflow_at_large_delta_exit_3(argv, message):
    # the equations are free of delta/omega, but the energy, photon_n's
    # condensate term and its fitted amplitude carry it
    rc, err, _ = run_quiet([*argv, "--delta", "1.7e308"])
    assert rc == 3 and err.startswith("error:") and message in err


def data_rows(lines):
    return [ln.split(",") for ln in lines if ln[:1].isdigit()]


def test_meanfield_root_scales_with_sqrt_delta(monkeypatch, tmp_path,
                                               capsys):
    # (a, b) = (A, B) / sqrt(Delta/omega) solves equations free of
    # Delta/omega, so each cell at Delta 100 and 1e20 is the rounding of
    # one scaled root times 10 and 1e10: exactly, the two cells over their
    # scales lie within half an ulp of each cell over its scale apart
    cells = []
    for delta, scale in (("100", 10), ("1e20", 10 ** 10)):
        assert run(monkeypatch, tmp_path, "meanfield", "--delta", delta,
                   "--g1", "0.6") == 0
        out = capsys.readouterr().out.splitlines()
        cells.append([(Fraction(float(c)) / scale,
                       Fraction(math.ulp(float(c))) / scale / 2)
                      for row in data_rows(out) for c in row[1:]])
    for (a, ha), (b, hb) in zip(*cells):
        assert abs(a - b) <= ha + hb


def test_large_delta_scan_keeps_the_delta_free_columns():
    # g1, var_x, var_p and the gaps do not depend on Delta/omega; the
    # photon numbers carry its condensate term
    argv = ["fluctuations", "--theta", "0.5", "--points", "6", "--seed", "4"]
    rc, _, ref = run_quiet(argv)
    rc1, _, big = run_quiet([*argv, "--delta", "1e11"])
    assert rc == rc1 == 0
    free = [0, *range(4, 12)]
    assert ([[row[k] for k in free] for row in data_rows(big)]
            == [[row[k] for k in free] for row in data_rows(ref)])


def test_large_delta_exponents_keep_the_gap_and_variance_rows():
    rc, _, ref = run_quiet(["exponents", "--theta", "0.1"])
    rc1, _, big = run_quiet(["exponents", "--theta", "0.1", "--delta",
                             "1e13"])
    assert rc == rc1 == 0
    rows = [[ln for ln in out if ln.startswith("NP-")
             and ln.split(",")[1] in ("eps1", "eps2", "var_x")]
            for out in (ref, big)]
    assert len(rows[0]) == 8 and rows[0] == rows[1]


@settings(derandomize=True, deadline=None, max_examples=20)
@given(cmd=st.sampled_from(["meanfield", "fluctuations", "spectrum",
                            "exponents", "phase-boundary"]),
       decade=st.floats(-300.0, 300.0), theta=st.floats(-math.pi, math.pi),
       j=st.floats(0.0, 0.3), delta=st.floats(10.0, 1000.0),
       g1=st.floats(0.0, 2.0), lo=st.floats(0.5, 1.5),
       width=st.floats(1e-6, 0.5), points=st.integers(2, 4))
@example(cmd="meanfield", decade=-100.0, theta=0.0, j=0.05, delta=100.0,
         g1=0.4922, lo=0.5, width=0.1, points=2)
# gaps of order 1e-314 in the unit, where a fit of the raw values lost
# digits to the subnormal range
@example(cmd="exponents", decade=-300.0, theta=1.0, j=0.25, delta=10.0,
         g1=0.0, lo=1.0, width=0.5, points=2)
@example(cmd="exponents", decade=300.0, theta=0.1, j=0.05, delta=100.0,
         g1=0.0, lo=1.0, width=0.5, points=2)
def test_every_solver_is_unit_free(cmd, decade, theta, j, delta, g1, lo,
                                   width, points):
    # omega log-uniform over the normal float range, Delta and J scaled
    # with it
    omega = 10.0 ** decade
    if cmd == "phase-boundary":
        flags = ["--points", str(points)]
    elif cmd == "meanfield":
        flags = ["--theta", repr(theta), "--g1", repr(g1)]
    elif cmd == "exponents":
        flags = ["--theta", repr(theta)]
    else:
        flags = ["--theta", repr(theta), "--window-min", repr(lo),
                 "--window-max", repr(lo + width), "--points", str(points)]
    assert_unit_free(cmd, omega, delta * omega, j * omega, *flags)


def test_failing_run_leaves_no_file(monkeypatch, tmp_path, capsys):
    # J/omega = 0.6 is too strong a hopping for the boundary formula at
    # every flux of the grid past theta = 0
    rc = run(monkeypatch, tmp_path, "phase-boundary", "--j", "0.6",
             "--points", "5", "--out", "pb.csv")
    assert rc == 3
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "pb.csv").exists()


# numpy warns of the overflow before the error is raised
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("flags, message", [
    (["--g1", "1e308"], "overflows"),      # H holds an infinity
    (["--j", "1e308"], "overflows"),
    (["--omega", "1e308"], "overflows"),   # inf - inf in the enclosure
    (["--delta", "1e308"], "overflows"),   # finite H, infinite width
    (["--j", "1e300"], "exceeds the cap"),   # about 1e297 substeps
    (["--g1", "1e300"], "exceeds the cap"),
    # omega*delta underflows to zero, but g = g1 sqrt(omega) sqrt(delta)
    # = 5.5e63 does not: about 1e64 substeps
    (["--omega", "7.7e-197", "--delta", "1.4e-246", "--g1", "5.3e284"],
     "exceeds the cap"),
    # 1e10 samples; the cap refuses them before anything is allocated
    (["--omega", "1e-150", "--delta", "1e-150", "--j", "0", "--g1", "0",
      "--tfinal", "1e9"], "samples exceed the cap"),
])
def test_dynamics_at_overflowing_couplings_exits_3(monkeypatch, tmp_path,
                                                   capsys, flags, message):
    rc = run(monkeypatch, tmp_path, "dynamics", "--nmax", "1", "--tfinal",
             "1", *flags, "--out", "d.csv")
    assert rc == 3
    err = capsys.readouterr().err
    assert "error:" in err and message in err
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.filterwarnings("ignore::rabitri.TruncationWarning")
@pytest.mark.parametrize("flags", [
    ["--omega", "1e-310", "--delta", "1e-310", "--j", "1e-320", "--g1",
     "1e-320"],
    ["--omega", "5e-324", "--delta", "5e-324", "--j", "0", "--g1", "0"],
])
def test_dynamics_at_subnormal_energies_keeps_the_photon(monkeypatch,
                                                         tmp_path, flags):
    # the spectral width is subnormal or zero: nothing moves by t = 1
    rc = run(monkeypatch, tmp_path, "dynamics", "--nmax", "1", "--tfinal",
             "1", *flags, "--out", "d.csv")
    assert rc == 0
    data = load_csv(tmp_path / "d.csv", 3)
    assert data.shape == (11, 5)
    assert np.all(data[:, 1:] == [1.0, 0.0, 0.0, 1.0])


def significant_digits(cell):
    return len(cell.split("e")[0].replace("-", "").replace(".", "")
               .lstrip("0"))


def test_subnormal_cells_carry_only_their_digits(monkeypatch, tmp_path,
                                                 capsys):
    # eps1 of the first row is about 6.4e-312, which a subnormal holds to
    # about 12 digits; the other cells are normal and keep 17
    rc = run(monkeypatch, tmp_path, "spectrum", "--omega", "1e-300",
             "--delta", "1e-299", "--j", "2.5e-301", "--theta", "1.0",
             "--window-min", "1.00000001", "--window-max", "1.000001",
             "--points", "3", "--out", "s.csv")
    assert rc == 0
    lines = (tmp_path / "s.csv").read_text().splitlines()
    cell = lines[3].split(",")[1]
    assert 0 < float(cell) < 2.2250738585072014e-308
    assert significant_digits(cell) <= 12
    assert repr(float(cell)) == cell
    assert significant_digits(lines[3].split(",")[2]) == 17
    # the residual norm of `meanfield`, a comment line, goes the same way
    capsys.readouterr()
    assert run(monkeypatch, tmp_path, "meanfield", "--omega", "1e-300",
               "--delta", "1e-298", "--j", "5e-302") == 0
    norm = [line.split(" = ")[1] for line in capsys.readouterr().out
            .splitlines() if line.startswith("# residual_norm = ")][0]
    assert 0 < float(norm) < 2.2250738585072014e-308
    assert significant_digits(norm) <= 12
    assert repr(float(norm)) == norm


def test_unknown_subcommand_exits_2(monkeypatch, tmp_path, capsys):
    # g1c does not depend on Delta, so phase-boundary takes no --delta
    for argv in (["frobnicate"], ["phase-boundary", "--delta", "5"]):
        assert run(monkeypatch, tmp_path, *argv) == 2
        assert "error:" in capsys.readouterr().err


def test_negative_flag_value_in_exponent_notation(monkeypatch, tmp_path,
                                                  capsys):
    assert run(monkeypatch, tmp_path, "meanfield", "--theta", "-1e-3",
               "--g1", "0.3") == 0
    assert "theta=-0.001" in capsys.readouterr().out


def test_help_exits_0(monkeypatch, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(monkeypatch, tmp_path, "spectrum", "--help")
    assert exc.value.code == 0
    assert "--window-min" in capsys.readouterr().out


# positive floats spread evenly over decades, subnormals to 1e308
log_uniform = st.floats(-320.0, 308.0).map(lambda e: 10.0 ** e)


@pytest.mark.filterwarnings("ignore::rabitri.TruncationWarning")
@settings(derandomize=True, deadline=None, max_examples=60)
@given(cmd=st.sampled_from(["meanfield", "fluctuations", "spectrum",
                            "dynamics", "phase-boundary", "exponents"]),
       theta=st.floats(-math.pi, math.pi), j=st.floats(0.0, 0.3),
       jr=st.floats(0.0, 0.6),
       delta=st.floats(10.0, 1000.0), seed=st.integers(0, 2 ** 16),
       g1=st.floats(0.0, 2.0), lo=st.floats(0.5, 1.5),
       width=st.floats(1e-6, 0.5), points=st.integers(2, 5),
       sizes=st.tuples(*[log_uniform] * 4), nmax=st.integers(1, 2),
       tfinal=st.floats(0.0, 3.0), decade=st.floats(-300.0, 300.0))
# a coupling whose Rabi entries overflow to infinity
@example(cmd="dynamics", theta=0.0, j=0.0, jr=0.0, delta=10.0, seed=0,
         g1=0.0, lo=0.5, width=0.1, points=2, sizes=(1.0, 50.0, 0.05, 1e308),
         nmax=1, tfinal=1.0, decade=0.0)
# omega*delta underflows to zero, but g = g1 sqrt(omega) sqrt(delta)
# = 5.5e63 does not
@example(cmd="dynamics", theta=0.0, j=0.0, jr=0.0, delta=10.0, seed=0,
         g1=0.0, lo=0.5, width=0.1, points=2,
         sizes=(7.7e-197, 1.4e-246, 0.05, 5.3e284), nmax=1, tfinal=1.0,
         decade=0.0)
# J/omega past 1/2 where J^2 and omega^2 underflow
@example(cmd="phase-boundary", theta=0.0, j=0.0, jr=0.507, delta=10.0,
         seed=0, g1=0.0, lo=0.5, width=0.1, points=3,
         sizes=(1e-260, 1.0, 1.0, 1.0), nmax=1, tfinal=1.0, decade=0.0)
def test_cli_fuzz_gives_trustworthy_rows_or_typed_failure(
        cmd, theta, j, jr, delta, seed, g1, lo, width, points, sizes, nmax,
        tfinal, decade):
    argv = [cmd]
    # the mean-field subcommands at omega log-uniform over the normal
    # float range, with Delta and J scaled by it
    omega = 10.0 ** decade
    if cmd == "phase-boundary":
        # omega over the whole positive float range, J/omega up to and past
        # the boundary formula's limit of 1/2
        argv += ["--omega", repr(sizes[0]), "--j", repr(jr * sizes[0]),
                 "--points", str(points)]
    elif cmd == "exponents":
        argv += ["--theta", repr(theta), "--omega", repr(omega),
                 "--j", repr(jr * omega), "--delta", repr(delta * omega)]
    elif cmd == "dynamics":
        argv += ["--theta", repr(theta), "--nmax", str(nmax),
                 "--tfinal", repr(tfinal)]
        # omega, Delta, J and g1 over the whole positive float range
        for key, value in zip(("omega", "delta", "j", "g1"), sizes):
            argv += ["--" + key, repr(value)]
    else:
        argv += ["--theta", repr(theta), "--omega", repr(omega), "--j",
                 repr(j * omega), "--delta", repr(delta * omega), "--seed",
                 str(seed)]
        if cmd == "meanfield":
            argv += ["--g1", repr(g1)]
        else:
            argv += ["--window-min", repr(lo), "--window-max",
                     repr(lo + width), "--points", str(points)]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.csv")
        rc = main([*argv, "--out", out])
        assert rc in (0, 2, 3)
        if rc != 0:
            return
        with open(out) as fh:
            lines = fh.read().splitlines()
    if cmd == "exponents":
        # every row a power law with r^2 >= 0.999, a finite limit, or failed
        rows = [ln.split(",") for ln in lines[4:]]
        assert len(rows) == 12
        for row in rows:
            expo, r2 = row[4], row[5]
            assert expo in ("finite", "failed") or (
                math.isfinite(float(expo)) and float(r2) >= 0.999)
        return
    rows = np.array([[float(x) for x in ln.split(",")]
                     for ln in lines if ln[:1].isdigit()])
    assert np.all(np.isfinite(rows))
    if cmd == "phase-boundary":
        # columns theta, g1c, q_soft
        assert len(rows) == points
        assert np.all(rows[:, 1] > 0.0)
        assert set(rows[:, 2]) <= {0.0, 2 * math.pi / 3, -2 * math.pi / 3}
        return
    if cmd == "dynamics":
        # columns t, N1..N3, norm; samples every 0.1 up to tfinal
        assert len(rows) == math.floor(tfinal / 0.1 + 1e-9) + 1
        assert rows[0, 0] == 0.0
        assert np.allclose(np.diff(rows[:, 0]), 0.1, rtol=0, atol=1e-12)
        assert np.all(np.abs(rows[:, 4] - 1.0) <= 1e-8)
        assert np.all((rows[:, 1:4] >= 0.0) & (rows[:, 1:4] <= nmax + 1e-8))
        return
    skipped = lines.count("# g1 = g1c skipped (critical point)")
    assert len(rows) + skipped == (3 if cmd == "meanfield" else points)
    if cmd == "meanfield":
        return
    if cmd == "fluctuations":
        # columns g1, n1..n3, vx1..vx3, vp1..vp3, eps1, eps2
        assert np.all(rows[:, 4:7] * rows[:, 7:10] >= 1.0 - 1e-12)
    gaps = rows[:, -2:] if cmd == "fluctuations" else rows[:, 1:]
    assert np.all(gaps[:, 0] > 0.0)
    assert np.all(np.diff(gaps, axis=1) >= 0.0)
