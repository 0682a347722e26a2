import json
import math
import subprocess
import sys

import numpy as np
import pytest

from nhbloch import cli
from nhbloch.analytic import CoherentField, decay_f
from nhbloch.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from nhbloch.nmr import HBAR, KB, ROOM_TEMPERATURE_K


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tpp_flags(tpp, *, model="analytic", samples=251, t_start=None, extra=()):
    flags = [
        "simulate",
        "--model",
        model,
        "--rabi-hz",
        repr(tpp.rabi_hz),
        "--mu",
        repr(tpp.decay.mu),
        "--delta-mu-ratio",
        "11.5",
        "--nu",
        repr(tpp.decay.nu),
        "--t-max",
        "500e-6",
        "--samples",
        str(samples),
    ]
    if t_start is not None:
        flags += ["--t-start", repr(t_start)]
    return flags + list(extra)


def read_csv(path):
    lines = path.read_text().splitlines()
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return lines[0], data


class TestSimulate:
    def test_analytic_table_matches_closed_form(self, tpp, tmp_path, capsys):
        out = tmp_path / "tpp.csv"
        code, _, _ = run(capsys, *tpp_flags(tpp, extra=("--out", str(out))))
        assert code == EXIT_OK
        header, data = read_csv(out)
        assert header == "t,mx,my,mz,purity"
        assert data.shape == (251, 5)
        t = data[:, 0]
        assert t[1] - t[0] == pytest.approx(2e-6, rel=1e-12)
        f = decay_f(tpp.decay, t)
        np.testing.assert_allclose(data[:, 1], f * np.sin(tpp.omega1 * t), atol=1e-12)
        np.testing.assert_allclose(data[:, 3], f * np.cos(tpp.omega1 * t), atol=1e-12)
        np.testing.assert_allclose(data[:, 2], 0.0, atol=1e-12)

    def test_purity_column_in_bounds(self, tpp, tmp_path, capsys):
        out = tmp_path / "p.csv"
        run(capsys, *tpp_flags(tpp, extra=("--out", str(out))))
        _, data = read_csv(out)
        assert np.all(data[:, 4] >= 0.5 - 1e-9)
        assert np.all(data[:, 4] <= 1.0 + 1e-9)

    def test_byte_identical_reruns(self, tpp, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        noise = ("--noise", "0.01", "--seed", "7")
        run(capsys, *tpp_flags(tpp, extra=(*noise, "--out", str(a))))
        run(capsys, *tpp_flags(tpp, extra=(*noise, "--out", str(b))))
        assert a.read_bytes() == b.read_bytes()

    def test_zero_decay_ode_keeps_unit_envelope(self, tpp, tmp_path, capsys):
        out = tmp_path / "coh.csv"
        code, _, _ = run(
            capsys,
            "simulate",
            "--model",
            "ode-bloch",
            "--rabi-hz",
            repr(tpp.rabi_hz),
            "--t-max",
            "200e-6",
            "--samples",
            "51",
            "--out",
            str(out),
        )
        assert code == EXIT_OK
        _, data = read_csv(out)
        norms = np.sqrt(np.sum(data[:, 1:4] ** 2, axis=1))
        np.testing.assert_allclose(norms, 1.0, atol=1e-7)

    def test_density_model_matches_analytic_rows(self, tpp, tmp_path, capsys):
        shared = dict(samples=101, t_start=1e-9)
        a, b = tmp_path / "an.csv", tmp_path / "ode.csv"
        run(capsys, *tpp_flags(tpp, model="analytic", **shared, extra=("--out", str(a))))
        code, _, _ = run(
            capsys, *tpp_flags(tpp, model="ode-density", **shared, extra=("--out", str(b)))
        )
        assert code == EXIT_OK
        _, da = read_csv(a)
        _, db = read_csv(b)
        assert np.max(np.abs(da - db)) <= 1e-6

    def test_json_format_records_seed(self, tpp, tmp_path, capsys):
        out = tmp_path / "sim.json"
        run(
            capsys,
            *tpp_flags(
                tpp,
                samples=31,
                extra=("--noise", "0.01", "--seed", "3", "--format", "json", "--out", str(out)),
            ),
        )
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == "1"
        assert payload["seed"] == 3
        assert len(payload["t"]) == 31

    @pytest.mark.filterwarnings("error")
    def test_noise_that_overflows_the_table_is_usage_error(self, capsys):
        # Draws of sigma 1.7e308 beyond about one sigma overflow to inf.
        argv = ("simulate", "--rabi-hz", "1e3", "--t-max", "1e-3", "--samples", "5", "--noise", "1.7e308")
        code, out, err = run(capsys, *argv, "--seed", "1")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: --noise 1.7e+308 is out of range (the noisy table overflows)\n"

    def test_noise_without_seed_is_usage_error(self, tpp, capsys):
        code, _, err = run(capsys, *tpp_flags(tpp, extra=("--noise", "0.01")))
        assert code == EXIT_USAGE
        assert "seed" in err

    def test_missing_field_flags_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "simulate", "--t-max", "1e-3")
        assert code == EXIT_USAGE

    def test_ode_with_decay_rejects_zero_start(self, tpp, capsys):
        code, _, err = run(capsys, *tpp_flags(tpp, model="ode-bloch", t_start=0.0))
        assert code == EXIT_USAGE
        assert "t-start" in err or "t = 0" in err

    def test_sample_count_must_be_at_least_two(self, tpp, capsys):
        code, _, err = run(capsys, *tpp_flags(tpp, samples=1))
        assert code == EXIT_USAGE
        assert "samples" in err

    def test_t_max_must_exceed_start(self, tpp, capsys):
        flags = tpp_flags(tpp)
        flags[flags.index("--t-max") + 1] = "-1.0"
        code, _, err = run(capsys, *flags)
        assert code == EXIT_USAGE
        assert "t-max" in err

    def test_unknown_format_rejected(self, tpp, capsys):
        code, _, _ = run(capsys, *tpp_flags(tpp, extra=("--format", "xml")))
        assert code == EXIT_USAGE

    @pytest.mark.filterwarnings("error")
    def test_overflowing_decay_exponent_keeps_the_table(self, capsys):
        # delta * t overflows to inf in the envelope, where exp(-inf) = 0 is right.
        code, out, err = run(
            capsys,
            *("simulate", "--rabi-hz", "1e-9", "--t-max", "1e150", "--samples", "2"),
            *("--mu", "1e3", "--delta-mu-ratio", "1e300", "--nu", "0"),
        )
        assert (code, err) == (EXIT_OK, "")
        assert out == "t,mx,my,mz,purity\n0.0,0.0,-0.0,1.0,1.0\n1e+150,-0.0,0.0,-0.0,0.5\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model", ["ode-bloch", "ode-density"])
    def test_ode_with_underflowing_decay_matches_closed_form(self, model, capsys):
        # delta t underflows, so 1 - f(t) rounds to 0 in the damping g(t).
        flags = (
            *("--rabi-hz", "1e-300", "--t-max", "1.5", "--samples", "5", "--detuning-hz", "1e-300"),
            *("--phi", "-1", "--mu", "5e-324", "--delta-mu-ratio", "1", "--nu", "0.999"),
        )
        code, out, err = run(capsys, "simulate", "--model", model, *flags)
        assert (code, err) == (EXIT_OK, "")
        _, closed_form, _ = run(capsys, "simulate", *flags, "--t-start", "1e-9")
        rows = lambda text: [[float(x) for x in line.split(",")] for line in text.splitlines()[1:]]
        np.testing.assert_allclose(rows(out), rows(closed_form), rtol=0.0, atol=1e-12)


class TestFieldConvention:
    @pytest.mark.parametrize("rabi_hz", [1000.0, 22245.3])
    @pytest.mark.parametrize("phi", [0.0, 0.37, 1.0, 1.5])
    @pytest.mark.parametrize("detuning_hz", [0.0, -0.0, 5000.0])
    def test_cli_field_is_rotating_frame_field(self, rabi_hz, phi, detuning_hz):
        flags = ["--rabi-hz", repr(rabi_hz), "--phi", repr(phi), "--detuning-hz", repr(detuning_hz)]
        field = cli._field_from_args(cli.build_parser().parse_args(["simulate", *flags]))
        two_pi = 2.0 * math.pi
        # The rotating-frame field of the nmr module convention, sign of zero included.
        omega1 = two_pi * rabi_hz
        phase = math.pi * phi + math.pi
        want = CoherentField(
            omega1 * math.cos(phase), omega1 * math.sin(phase), -two_pi * detuning_hz
        )
        hexes = lambda f: [w.hex() for w in (f.wx, f.wy, f.wz)]
        assert hexes(field) == hexes(want)


@pytest.fixture
def record(tpp, tmp_path, capsys):
    path = tmp_path / "record.csv"
    run(capsys, *tpp_flags(tpp, extra=("--out", str(path))))
    return str(path)


class TestBadFlagValues:
    @pytest.mark.parametrize(
        "command, flags, flag",
        [
            ("simulate", ("--rabi-hz", "nan"), "--rabi-hz"),
            ("simulate", ("--detuning-hz", "nan"), "--detuning-hz"),
            ("simulate", ("--field-hz", "nan", "0", "0"), "--field-hz"),
            ("simulate", ("--phi", "inf"), "--phi"),
            ("simulate", ("--t-max", "inf"), "--t-max"),
            ("simulate", ("--t-max", "nan"), "--t-max"),
            ("simulate", ("--noise", "-1", "--seed", "1"), "--noise"),
            ("simulate", ("--noise", "0.01", "--seed", "-1"), "--seed"),
            ("fit", ("--fix-ratio", "0.5"), "--fix-ratio"),
            ("fit", ("--fix-ratio", "nan"), "--fix-ratio"),
            ("fit", ("--guess", "-1", "1", "0.1", "1000"), "--guess"),
            ("thermal", ("--larmor-hz", "nan"), "--larmor-hz"),
            ("thermal", ("--larmor-hz", "inf"), "--larmor-hz"),
            ("thermal", ("--larmor-hz", "1e6", "--temperature", "nan"), "--temperature"),
            # Finite, but 2*pi times the value overflows.
            ("simulate", ("--rabi-hz", "1e308"), "--rabi-hz"),
            ("simulate", ("--detuning-hz", "1e308"), "--detuning-hz"),
            ("simulate", ("--field-hz", "1e308", "0", "0"), "--field-hz"),
            ("compare", ("--rabi-hz", "1e308"), "--rabi-hz"),
            ("thermal", ("--larmor-hz", "1e308"), "--larmor-hz"),
            # Finite in rad/s, but the field norm or cosh overflows.
            ("simulate", ("--rabi-hz", "1e200"), "--rabi-hz"),
            ("simulate", ("--detuning-hz", "1e200"), "--detuning-hz"),
            ("simulate", ("--field-hz", "1e160", "0", "0"), "--field-hz"),
            ("simulate", ("--field-hz", "2e153", "2e153", "0"), "--field-hz"),
            ("compare", ("--rabi-hz", "1e200"), "--rabi-hz"),
            ("thermal", ("--larmor-hz", "1e200"), "--larmor-hz"),
            # pi times the phase overflows.
            ("simulate", ("--phi", "1e308"), "--phi"),
            ("compare", ("--rabi-hz", "100", "--phi=-1e308"), "--phi"),
        ],
    )
    def test_is_usage_error(self, tpp, record, capsys, command, flags, flag):
        base = {
            "simulate": tpp_flags(tpp),
            "fit": ["fit", record],
            "compare": ["compare", "--a", "analytic", "--b", "ode-bloch", "--t-max", "5e-4"],
            "thermal": ["thermal"],
        }
        code, out, err = run(capsys, *base[command], *flags)
        assert code == EXIT_USAGE
        assert out == ""
        assert flag in err

    @pytest.mark.filterwarnings("error")
    def test_infinite_decay_rate_is_usage_error(self, capsys):
        # delta = 10 * 1e308 overflows; the model refuses it before numpy warns.
        flags = ["--mu", "1e308", "--delta-mu-ratio", "10", "--nu", "0.1"]
        code, out, err = run(
            capsys, "simulate", "--rabi-hz", "100", "--t-max", "1e-3", "--samples", "5", *flags
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: decay parameters must be finite") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv, named",
        [
            # linspace collapses: 5e-324 leaves no room for 5 distinct times.
            ("simulate --rabi-hz 1e3 --t-max 5e-324 --samples 5", "--t-max --samples"),
            ("simulate --model ode-bloch --rabi-hz 1e3 --t-max 1e-3 --t-start -1", "--t-start"),
            # t-max - t-start overflows in linspace.
            ("simulate --rabi-hz 1e-9 --t-start=-1e308 --t-max 1e308", "--t-start --t-max"),
            # omega * t overflows, and sin(inf) is nan.
            ("simulate --rabi-hz 1e150 --t-max 1e200 --samples 3", "--rabi-hz --t-max"),
            ("compare --a analytic --b ode-bloch --rabi-hz 1e150 --t-max 1e200", "--rabi-hz --t-max"),
            ("simulate --field-hz 1e150 0 0 --t-max 1e200", "--field-hz --t-max"),
            # f(t) > 1 before t = 0: the decay model holds for t >= 0 only.
            (
                "simulate --rabi-hz 1e3 --t-start -1 --t-max 1e-3 --samples 3"
                " --mu 1 --delta-mu-ratio 2 --nu 0.1",
                "--t-start",
            ),
            (
                "compare --a analytic --b analytic --rabi-hz 1e3 --t-start=-1e-6 --t-max 1e-3"
                " --mu 1 --delta-mu-ratio 2 --nu 0.1",
                "--t-start",
            ),
        ],
    )
    def test_bad_grid_is_usage_error(self, capsys, argv, named):
        code, out, err = run(capsys, *argv.split())
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(flag in err for flag in named.split()), err

    @pytest.mark.filterwarnings("error")
    def test_file_grid_whose_angle_overflows_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        run(capsys, *"simulate --rabi-hz 1e-9 --t-max 1e200 --samples 9 --out".split(), str(path))
        code, out, err = run(capsys, "compare", "--a", "analytic", "--b", str(path), "--rabi-hz", "1e150")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--rabi-hz" in err and str(path) in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("order", ["model-file", "file-model"])
    def test_file_grid_before_zero_under_decay_is_usage_error(self, tmp_path, capsys, order):
        # Without decay a rotation before t = 0 is fine; with decay f(t) > 1 there.
        path = tmp_path / "early.csv"
        code, _, _ = run(
            capsys, *"simulate --rabi-hz 1e3 --t-start=-1e-6 --t-max 1e-3 --samples 9 --out".split(),
            str(path),
        )
        assert code == EXIT_OK
        a, b = ("analytic", str(path)) if order == "model-file" else (str(path), "analytic")
        decay = "--rabi-hz 1e3 --mu 1 --delta-mu-ratio 2 --nu 0.1".split()
        code, out, err = run(capsys, "compare", "--a", a, "--b", b, *decay)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err

    def test_bad_number_text_keeps_float_message(self, tpp, capsys):
        code, _, err = run(capsys, *tpp_flags(tpp, extra=("--rabi-hz", "abc")))
        assert code == EXIT_USAGE
        assert "argument --rabi-hz: invalid float value: 'abc'" in err


class TestRefusalsNoOtherCheckCatches:
    """Refusals whose removal no other check would notice: without each, the run
    exits 0 with a wrong answer, leaks a traceback or refuses with a message
    that names the wrong thing."""

    GRID = ("--t-max", "1e-3", "--samples", "5")

    def refused(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    @pytest.mark.parametrize("rabi_hz", ["-100", "0", "-0.0"])
    def test_non_positive_rabi_hz(self, capsys, rabi_hz):
        err = self.refused(capsys, "simulate", "--rabi-hz", rabi_hz, *self.GRID)
        assert err == "error: --rabi-hz must be positive\n"

    def test_zero_mu(self, capsys):
        decay = ("--mu", "0", "--delta-mu-ratio", "2", "--nu", "0.1")
        err = self.refused(capsys, "simulate", "--rabi-hz", "1e3", *decay, *self.GRID)
        assert err == "error: decay rates must be positive\n"

    def test_delta_together_with_ratio(self, capsys):
        decay = ("--mu", "1e3", "--nu", "0.1", "--delta", "2e4", "--delta-mu-ratio", "20")
        err = self.refused(capsys, "simulate", "--rabi-hz", "1e3", *decay, *self.GRID)
        assert err == "error: give exactly one of --delta or --delta-mu-ratio\n"

    @pytest.mark.parametrize("command", ["simulate", "compare --a analytic --b ode-bloch"])
    def test_missing_t_max(self, capsys, command):
        err = self.refused(capsys, *command.split(), "--rabi-hz", "1e3")
        assert err == "error: need --t-max\n"

    @pytest.mark.parametrize(
        "grid",
        [
            "--t-max 0",
            "--t-max=-1e-3",
            "--t-start 1e-3 --t-max 1e-3",
            "--t-start 1e-3 --t-max 1e-4",
            # The ODE models with decay start at 1e-9 by default.
            "--model ode-bloch --mu 1e3 --delta-mu-ratio 2 --nu 0.1 --t-max 1e-9",
        ],
    )
    def test_t_max_at_or_below_the_start(self, capsys, grid):
        err = self.refused(capsys, "simulate", "--rabi-hz", "1e3", *grid.split())
        assert err == "error: --t-max must exceed the start time\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_naming_a_directory(self, tmp_path, capsys, fmt):
        target = tmp_path / "table"
        target.mkdir()
        argv = ("simulate", "--rabi-hz", "1e3", *self.GRID, "--format", fmt, "--out", str(target))
        err = self.refused(capsys, *argv)
        assert str(target) in err
        # The temporary sibling is removed, and the directory is left as it was.
        assert [p.name for p in tmp_path.iterdir()] == ["table"]
        assert list(target.iterdir()) == []


class TestNegativeExponentValues:
    """argparse reads plain decimals such as -0.5 as values; -1e-09 is one too."""

    @pytest.mark.parametrize(
        "words, values",
        [
            (["-1e-09", "0", "1e3"], [-1e-09, 0.0, 1e3]),
            (["-2.5E+3", "-7e2", "-1e-300"], [-2500.0, -700.0, -1e-300]),
            (["-.5e1", "-5.", "-0e0"], [-5.0, -5.0, -0.0]),
            # Spellings argparse took before keep their meaning.
            (["-0.5", "-1", "-.25"], [-0.5, -1.0, -0.25]),
        ],
    )
    def test_field_hz_components(self, words, values):
        args = cli.build_parser().parse_args(["simulate", "--field-hz", *words])
        assert [v.hex() for v in args.field_hz] == [v.hex() for v in values]

    def test_field_hz_table_matches_plain_decimal_spelling(self, capsys):
        grid = ("--t-max", "1e-3", "--samples", "3")
        code, out, err = run(capsys, "simulate", "--field-hz", "-1e-09", "0", "1e3", *grid)
        assert code == EXIT_OK, err
        assert run(capsys, "simulate", "--field-hz", "-0.000000001", "0", "1e3", *grid) == (EXIT_OK, out, "")

    def test_guess_values(self):
        words = ["6.05e3", "5.26e2", "-0e0", "2.2e4"]
        args = cli.build_parser().parse_args(["fit", "record.csv", "--guess", *words])
        assert [v.hex() for v in args.guess] == [v.hex() for v in (6050.0, 526.0, -0.0, 22000.0)]

    def test_negative_guess_reaches_the_guess_check(self, record, capsys):
        code, out, err = run(capsys, "fit", record, "--guess", "-1e-09", "500", "0.1", "22000")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: --guess: need delta >= mu > 0") and err.count("\n") == 1

    @pytest.mark.parametrize("word", ["--1e5", "-e5", "-1e", "-1e5x", "-inf"])
    def test_other_dash_words_are_still_flags(self, tpp, capsys, word):
        code, out, err = run(capsys, *tpp_flags(tpp), "--field-hz", word, "0", "0")
        assert code == EXIT_USAGE
        assert out == ""
        assert "argument --field-hz: expected 3 arguments" in err


class TestFit:
    def test_round_trip_recovers_parameters(self, tpp, tmp_path, capsys):
        csv_path = tmp_path / "rec.csv"
        run(capsys, *tpp_flags(tpp, extra=("--out", str(csv_path))))
        code, out, _ = run(capsys, "fit", str(csv_path))
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["schema_version"] == "1"
        assert payload["converged"] is True
        assert payload["delta"] == pytest.approx(tpp.decay.delta, rel=1e-6)
        assert payload["mu"] == pytest.approx(tpp.decay.mu, rel=1e-6)
        assert payload["nu"] == pytest.approx(tpp.decay.nu, rel=1e-6)
        assert payload["omega1"] == pytest.approx(tpp.omega1, rel=1e-6)
        assert payload["my_rms"] <= 1e-12
        assert set(payload["stderr"]) == {"delta", "mu", "nu", "omega1"}

    def test_empty_file_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "empty.csv"
        bad.write_text("")
        code, _, err = run(capsys, "fit", str(bad))
        assert code == EXIT_USAGE
        assert "header" in err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "fit", str(tmp_path / "nope.csv"))
        assert code == EXIT_USAGE

    def test_bad_row_reports_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,mx,my,mz\n0.0,0.0,0.0,1.0\n1.0,oops,0.0,1.0\n")
        code, _, err = run(capsys, "fit", str(bad))
        assert code == EXIT_USAGE
        assert ":3:" in err

    def test_flat_record_is_numerical_failure(self, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        rows = "\n".join(f"{i * 1e-6!r},0.0,0.0,0.0" for i in range(32))
        flat.write_text("t,mx,my,mz\n" + rows + "\n")
        code, out, err = run(capsys, "fit", str(flat))
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert err == "numerical failure: flat record: no oscillation peak to anchor omega1\n"

    def test_noisy_file_with_seed_echo(self, tpp, tmp_path, capsys):
        csv_path = tmp_path / "noisy.csv"
        run(capsys, *tpp_flags(tpp, extra=("--noise", "0.01", "--seed", "5", "--out", str(csv_path))))
        code, out, _ = run(capsys, "fit", str(csv_path), "--fix-ratio", "11.5", "--seed", "5")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["seed"] == 5
        assert payload["fixed_delta_mu_ratio"] == 11.5
        assert payload["nu"] == pytest.approx(tpp.decay.nu, rel=0.4)

    @pytest.mark.parametrize("to_file", [False, True])
    def test_capped_fit_writes_its_result_then_one_line(self, tmp_path, capsys, to_file):
        # A free fit on this noisy record drifts along the delta ~ mu ridge
        # until the iteration cap stops it.
        record = tmp_path / "noisy.csv"
        tpp = "--rabi-hz 22245.3 --mu 525.806 --delta-mu-ratio 11.5 --nu 0.0653 --t-max 500e-6"
        run(capsys, "simulate", *tpp.split(), "--noise", "0.05", "--seed", "1", "--out", str(record))
        result = tmp_path / "fit.json"
        code, out, err = run(capsys, "fit", str(record), *(("--out", str(result)) if to_file else ()))
        assert code == EXIT_NUMERICAL
        payload = json.loads(result.read_text() if to_file else out)
        assert (payload["converged"], payload["iterations"]) == (False, 200)
        assert err.startswith("numerical failure: the fit stopped at its cap of 200 LM iterations")
        assert err.count("\n") == 1 and "--fix-ratio" in err

    @pytest.mark.parametrize("extra", [("--fix-ratio", "11.5"), ()])
    def test_overflowing_trial_step_is_rejected(self, tpp, tmp_path, capsys, extra):
        # On this record an LM trial step is so long that decoding it overflows
        # exp(); the fit must treat it as a rejected step, not crash.
        csv_path = tmp_path / "noisy.csv"
        noise = ("--noise", "0.05", "--seed", "43", "--out", str(csv_path))
        run(capsys, *tpp_flags(tpp, extra=noise))
        code, out, _ = run(capsys, "fit", str(csv_path), *extra)
        assert code in (EXIT_OK, EXIT_NUMERICAL)
        assert json.loads(out)["command"] == "fit"


# Results of the lab-frame LM fit that fitted nu as a fourth parameter, on
# the acceptance-7 records: (delta, mu, nu, omega1) of the clean free fit and
# (delta, mu, nu, omega1, rms) of the sigma 0.01 ratio-pinned fits, noise
# seeds 0-19.
LAB_FRAME_CLEAN = (6046.774490970914, 525.806477475756, 0.06529999999999737, 139771.34211380212)
LAB_FRAME_PINNED = (
    (6053.509603260537, 526.3921394139597, 0.062200616668510546, 139787.4667792765, 0.009926520793291819),
    (6081.769078835738, 528.8494851161511, 0.08026586795228116, 139788.75114485575, 0.009785544344152273),
    (6026.535351487676, 524.0465523032761, 0.06252638343443188, 139761.01297490406, 0.009812519360748423),
    (6076.911234638306, 528.4270638815918, 0.07609268961443368, 139783.20971282158, 0.00991931751932706),
    (6054.646698177873, 526.4910172328586, 0.07164812403190138, 139771.03152296453, 0.010061750232784881),
    (6012.630460190788, 522.8374313209381, 0.056847298553095324, 139787.17424477296, 0.009497150373224858),
    (6041.161422040742, 525.3183845252819, 0.05639445062515266, 139790.80708348157, 0.009972108438911014),
    (6045.345230405004, 525.6821939482612, 0.06341986283576814, 139770.0761855849, 0.009663028288338597),
    (6046.621074118641, 525.7931368798819, 0.06738865589128279, 139765.5868084926, 0.010159044717451535),
    (6018.513727398776, 523.3490197738066, 0.05276378641820588, 139780.20663975406, 0.009933822569912603),
    (6073.559767875482, 528.1356319891723, 0.06831910051305633, 139745.54994304624, 0.010197132330302686),
    (6082.23756955713, 528.8902234397505, 0.07557444889576671, 139762.58014116832, 0.009753874623630804),
    (6038.803923205458, 525.1133846265616, 0.059926927208407484, 139772.54259633753, 0.009882332449703548),
    (6057.674000026285, 526.7542608718509, 0.06841502223455159, 139769.49793785322, 0.010075736073645092),
    (6041.148311680017, 525.3172444939146, 0.060959251161333404, 139762.92208781556, 0.009860076692956849),
    (6070.447395949642, 527.8649909521428, 0.07169170877184405, 139779.4796403428, 0.009585118412905064),
    (6087.675723472207, 529.3631063888876, 0.0741863708979999, 139767.90444988152, 0.009806761093902808),
    (6043.924442319082, 525.5586471581811, 0.06993944649710832, 139762.7010393896, 0.00982448677436488),
    (6041.113466695771, 525.3142144952844, 0.06454747516139521, 139769.6171996496, 0.010174268034667543),
    (6016.304694605223, 523.1569299656716, 0.05702334501297441, 139771.57017845113, 0.010067873195320052),
)


def fit_json(capsys, record, *flags):
    code, out, err = run(capsys, "fit", str(record), *flags)
    assert code == EXIT_OK, err
    payload = json.loads(out)
    return (payload["delta"], payload["mu"], payload["nu"], payload["omega1"]), payload["rms"]


class TestFitMatchesLabFrameFit:
    """The rotating-frame fit lands where the lab-frame LM with a fitted nu did."""

    def test_clean_free_fit(self, tpp, tmp_path, capsys):
        record = tmp_path / "clean.csv"
        run(capsys, *tpp_flags(tpp, extra=("--out", str(record))))
        params, rms = fit_json(capsys, record)
        assert params == pytest.approx(LAB_FRAME_CLEAN, rel=1e-7)
        assert rms <= 1e-13  # rounding level, where no two fits agree to 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_acceptance_7_pinned_fit(self, tpp, tmp_path, capsys, seed):
        record = tmp_path / "noisy.csv"
        noise = ("--noise", "0.01", "--seed", str(seed), "--out", str(record))
        run(capsys, *tpp_flags(tpp, extra=noise))
        params, rms = fit_json(capsys, record, "--fix-ratio", "11.5")
        assert params == pytest.approx(LAB_FRAME_PINNED[seed][:4], rel=1e-7)
        assert rms == pytest.approx(LAB_FRAME_PINNED[seed][4], rel=1e-12)


class TestFitRefusesSignalInMy:
    @pytest.mark.parametrize("extra", [("--phi", "1.0"), ("--detuning-hz", "5000")])
    @pytest.mark.parametrize("mode", [("--fix-ratio", "11.5"), ()])
    def test_off_resonance_record_exits_2(self, tpp, tmp_path, capsys, extra, mode):
        # The model cannot describe these records. The lab-frame fit with a
        # fitted nu died on "nu=1.0 outside [0, 1)" on the phi 1.0 record and
        # answered rabi 22800 Hz (true 22245 Hz) with exit 0 on the detuned one.
        record = tmp_path / "off.csv"
        run(capsys, *tpp_flags(tpp, extra=extra + ("--out", str(record))))
        code, out, err = run(capsys, "fit", str(record), *mode)
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert err.startswith("numerical failure: m_y carries signal") and err.count("\n") == 1
        assert "resonant drive" in err

    @pytest.mark.parametrize("samples", [251, 100_000])
    def test_nominal_records_still_fit(self, tpp, tmp_path, capsys, samples):
        # A clean record's m_y is cos(2.5 pi) rounding, about 1e-16, with a
        # von Neumann z near sqrt(N): the amplitude floor must let it through.
        for noise in (None, "0.01", "0.05"):
            record = tmp_path / f"nominal-{noise}.csv"
            extra = () if noise is None else ("--noise", noise, "--seed", "11")
            run(capsys, *tpp_flags(tpp, samples=samples, extra=extra + ("--out", str(record))))
            code, _, err = run(capsys, "fit", str(record), "--fix-ratio", "11.5")
            assert code == EXIT_OK, (noise, err)


def reference_csv(times, mx, my, mz, purity=None):
    """The per-row repr formatter the streamed CSV writer must match byte for byte."""
    lines = ["t,mx,my,mz" + (",purity" if purity is not None else "")]
    for i in range(len(times)):
        row = [repr(float(times[i])), repr(float(mx[i])), repr(float(my[i])), repr(float(mz[i]))]
        if purity is not None:
            row.append(repr(float(purity[i])))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# Values whose repr is easy to get wrong: signed zero, the smallest subnormal,
# a float beyond 2**53 and a decimal fraction with no exact binary form.
AWKWARD = np.array([-0.0, 5e-324, 1e16, 0.1, -1.0 / 3.0, 2.5e-300, 123456789.0])


class TestCsvWriter:
    @pytest.mark.parametrize("offset", [None, -1, 0, 1])
    @pytest.mark.parametrize("with_purity", [True, False])
    def test_bytes_match_per_row_repr(self, offset, with_purity, tmp_path):
        n = 1 if offset is None else cli._CSV_CHUNK_ROWS + offset
        cols = [np.resize(np.roll(AWKWARD, k), n) for k in range(5)]
        if not with_purity:
            cols = cols[:4]
        out = tmp_path / "w.csv"
        cli._write_text(str(out), cli._csv_text(*cols))
        assert out.read_bytes() == reference_csv(*cols).encode("utf-8")

    def test_stdout_matches_per_row_repr(self, capsys):
        cols = [np.resize(np.roll(AWKWARD, k), cli._CSV_CHUNK_ROWS + 1) for k in range(5)]
        cli._write_text(None, cli._csv_text(*cols))
        assert capsys.readouterr().out == reference_csv(*cols)


def table(path, rows):
    """Write a t,mx,my,mz table of the given rows."""
    path.write_text("t,mx,my,mz\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows))
    return str(path)


def csv_rows(n, ncols):
    """n valid data lines of an ncols-column record (t, mx, my, mz[, purity])."""
    return [
        ",".join([repr(i * 1e-6), repr(math.sin(i)), "0.0", repr(math.cos(i)), "1.0"][:ncols])
        for i in range(n)
    ]


def with_line(lines, lineno, text):
    """Replace the line numbered lineno (1-based, header is line 1)."""
    lines = list(lines)
    lines[lineno - 1] = text
    return lines


def reader_cases(chunk):
    """Malformed files and the message suffix after the path, as the per-line parser gave."""
    far = chunk + 50  # a line in the second chunk
    rec4 = ["t,mx,my,mz"] + csv_rows(2 * chunk, 4)
    rec5 = ["t,mx,my,mz,purity"] + csv_rows(2 * chunk, 5)
    blank = rec4[:10] + ["", "   "] + rec4[10:20] + ["1.0,2.0,3.0"]
    return {
        "columns-past-chunk-4": (
            "\n".join(with_line(rec4, far, "1.0,2.0,3.0")) + "\n",
            f":{far}: expected 4 columns, got 3",
        ),
        "columns-past-chunk-5": (
            "\n".join(with_line(rec5, far, "1.0,2.0,3.0,4.0,5.0,6.0")) + "\n",
            f":{far}: expected 5 columns, got 6",
        ),
        "compensating-columns": (
            "\n".join(with_line(with_line(rec4, far, "1.0,2.0,3.0"), far + 1, "1,2,3,4,5"))
            + "\n",
            f":{far}: expected 4 columns, got 3",
        ),
        "number-past-chunk": (
            "\n".join(with_line(rec4, far, "1.0,oops,0.0,1.0")) + "\n",
            f":{far}: could not convert string to float: 'oops'",
        ),
        "empty-field-past-chunk": (
            "\n".join(with_line(rec5, far, "1.0,,0.0,1.0,1.0")) + "\n",
            f":{far}: could not convert string to float: ''",
        ),
        "blank-lines-counted": ("\n".join(blank) + "\n", f":{len(blank)}: expected 4 columns, got 3"),
        "crlf-past-chunk": (
            "\r\n".join(with_line(rec4, far, "1.0,oops,0.0,1.0")) + "\r\n",
            f":{far}: could not convert string to float: 'oops'",
        ),
        "form-feed-splits-lines": (
            "\n".join(rec4[:5] + ["0.5,0.0,0.0,1.0\x0c1.0,2.0,3.0"]) + "\n",
            ":7: expected 4 columns, got 3",
        ),
        "header-only": ("t,mx,my,mz\n", ":2: no data rows"),
        "blank-lines-only": ("t,mx,my,mz,purity\n\n  \n", ":2: no data rows"),
        "empty": ("", ":1: empty file, expected header 't,mx,my,mz'"),
        "bad-header": ("t,x,y,z\n0,0,0,1\n", ":1: bad header 't,x,y,z', expected 't,mx,my,mz[,purity]'"),
        "header-4-rows-5": (
            "\n".join(["t,mx,my,mz"] + csv_rows(10, 5)) + "\n",
            ":2: expected 4 columns, got 5",
        ),
        "header-5-rows-4": (
            "\n".join(["t,mx,my,mz,purity"] + csv_rows(10, 4)) + "\n",
            ":2: expected 5 columns, got 4",
        ),
        # The fit's record rules, which fit applies after reading.
        "too-short": ("\n".join(rec4[:4]) + "\n", ": need at least 8 samples, got 3"),
        "beyond-bound": (
            "\n".join(with_line(rec4, far, rec4[far - 1].split(",")[0] + ",0.0,0.0,2.0")) + "\n",
            ": |mz| = 2.000 exceeds the sanity bound 1.5",
        ),
        "times-not-increasing": (
            "\n".join(with_line(rec4, far, rec4[far - 2])) + "\n",
            ": times must be strictly increasing",
        ),
        "nan-value": (
            "\n".join(with_line(rec4, far, "1.0,nan,0.0,1.0")) + "\n",
            ": trajectory contains non-finite entries",
        ),
    }


READER_CASES = reader_cases(cli._CSV_CHUNK_ROWS)


class TestCsvReader:
    @pytest.mark.parametrize("case", list(READER_CASES))
    def test_malformed_file_message(self, case, tmp_path, capsys):
        text, suffix = READER_CASES[case]
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode("utf-8"))
        code, out, err = run(capsys, "fit", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: {path}{suffix}\n"

    @pytest.mark.parametrize("ncols", [4, 5])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_valid_file_across_chunks(self, ncols, newline, tmp_path):
        header = "t,mx,my,mz" + (",purity" if ncols == 5 else "")
        rows = csv_rows(2 * cli._CSV_CHUNK_ROWS + 3, ncols)
        lines = [header] + rows[:7] + ["", "  "] + rows[7:]
        path = tmp_path / "ok.csv"
        path.write_bytes((newline.join(lines) + newline).encode("utf-8"))
        series = cli._read_series(str(path))
        expected = np.array([[float(x) for x in row.split(",")[:4]] for row in rows])
        np.testing.assert_array_equal(np.column_stack([series.times, series.bloch]), expected)

    def test_undecodable_bytes_are_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        lines = ["t,mx,my,mz"] + csv_rows(2 * cli._CSV_CHUNK_ROWS, 4)
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8") + b"0.5,\xff,0.0,1.0\n")
        code, _, err = run(capsys, "fit", str(path))
        assert code == EXIT_USAGE
        assert err == f"error: {path}: not UTF-8 text (invalid start byte)\n"

    def test_reader_applies_no_fit_rule(self, tmp_path):
        path = table(tmp_path / "rec.csv", [(0.0, 0.0, 0.0, 2.0)])
        np.testing.assert_array_equal(cli._read_series(path).bloch, [[0.0, 0.0, 2.0]])

    def test_purity_column_is_not_parsed(self, tmp_path):
        lines = ["t,mx,my,mz,purity"] + [row[: row.rindex(",")] + ",n/a" for row in csv_rows(9, 5)]
        path = tmp_path / "p.csv"
        path.write_text("\n".join(lines) + "\n")
        series = cli._read_series(str(path))
        assert len(series) == 9
        np.testing.assert_array_equal(series.bloch[:, 0], [math.sin(i) for i in range(9)])


class TestCompare:
    def test_file_against_itself_is_exact(self, tpp, tmp_path, capsys):
        csv_path = tmp_path / "self.csv"
        run(capsys, *tpp_flags(tpp, samples=51, extra=("--out", str(csv_path))))
        code, out, _ = run(capsys, "compare", "--a", str(csv_path), "--b", str(csv_path), "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["overall"] == 0.0
        assert payload["min_fidelity"] == pytest.approx(1.0, abs=1e-12)

    def test_analytic_versus_ode(self, tpp, capsys):
        code, out, _ = run(
            capsys,
            "compare",
            "--a",
            "analytic",
            "--b",
            "ode-bloch",
            "--rabi-hz",
            repr(tpp.rabi_hz),
            "--mu",
            repr(tpp.decay.mu),
            "--delta-mu-ratio",
            "11.5",
            "--nu",
            repr(tpp.decay.nu),
            "--t-max",
            "500e-6",
            "--samples",
            "101",
            "--json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["overall"] <= 1e-6
        assert payload["min_fidelity"] >= 1.0 - 1e-9

    def test_noisy_file_reports_fidelity_dip(self, tpp, tmp_path, capsys):
        noisy = tmp_path / "noisy.csv"
        run(capsys, *tpp_flags(tpp, extra=("--noise", "0.01", "--seed", "11", "--out", str(noisy))))
        code, out, _ = run(
            capsys,
            "compare",
            "--a",
            "analytic",
            "--b",
            str(noisy),
            "--rabi-hz",
            repr(tpp.rabi_hz),
            "--mu",
            repr(tpp.decay.mu),
            "--delta-mu-ratio",
            "11.5",
            "--nu",
            repr(tpp.decay.nu),
            "--json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["min_fidelity"] < 1.0 - 1e-9
        assert 0.0 <= payload["min_fidelity_time"] <= 500e-6

    @pytest.mark.parametrize("model", ["ode-bloch", "ode-density"])
    def test_min_fidelity_ties_density_matrix_path(self, tpp, capsys, model, matrix_fidelity_trace):
        # The row-wise and matrix-path values near 1 differ by a few ulp, so the
        # reported minimum may sit on any sample that ties the matrix-path
        # minimum within 1e-15 (about 9 ulp at 1).
        flags = [
            "compare", "--a", "analytic", "--b", model, "--rabi-hz", repr(tpp.rabi_hz),
            "--mu", repr(tpp.decay.mu), "--delta-mu-ratio", "11.5", "--nu", repr(tpp.decay.nu),
            "--t-max", "500e-6", "--samples", "251",
        ]  # fmt: skip
        code, out, _ = run(capsys, *flags, "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        args = cli.build_parser().parse_args(flags)
        field, decay = cli._field_from_args(args), cli._decay_from_args(args)
        times = cli._grid_from_args(args, model, decay)
        theory = cli._simulate("analytic", field, decay, times)
        ref = matrix_fidelity_trace(theory, cli._simulate(model, field, decay, times))
        assert abs(payload["min_fidelity"] - np.min(ref)) <= 1e-15
        i = int(np.searchsorted(times, payload["min_fidelity_time"]))
        assert times[i] == payload["min_fidelity_time"]
        assert ref[i] - np.min(ref) <= 1e-15

    def test_grid_mismatch_is_usage_error(self, tpp, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, *tpp_flags(tpp, samples=51, extra=("--out", str(a))))
        run(capsys, *tpp_flags(tpp, samples=61, extra=("--out", str(b))))
        code, out, err = run(capsys, "compare", "--a", str(a), "--b", str(b))
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (
            f"error: {a} and {b} hold different time grids"
            " (51 rows to 0.0005 s against 61 rows to 0.0005 s)\n"
        )

    def test_file_grid_at_zero_against_ode_is_usage_error(self, tpp, record, capsys):
        flags = tpp_flags(tpp)[3:]  # the field and decay flags, without the model
        code, out, err = run(capsys, "compare", "--a", record, "--b", "ode-bloch", *flags)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (
            f"error: the times of {record} start at t = 0.0 s;"
            " ODE models with decay need t > 0 (damping diverges at t = 0)\n"
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model, decay", [("ode-bloch", False), ("ode-density", True)])
    def test_file_grid_before_zero_against_ode_is_usage_error(self, tmp_path, capsys, model, decay):
        path = tmp_path / "early.csv"
        code, _, _ = run(
            capsys, *"simulate --rabi-hz 1e3 --t-start=-1e-6 --t-max 1e-3 --samples 9 --out".split(),
            str(path),
        )
        assert code == EXIT_OK
        flags = ["--rabi-hz", "1e3"] + ("--mu 1 --delta-mu-ratio 2 --nu 0.1".split() if decay else [])
        code, out, err = run(capsys, "compare", "--a", str(path), "--b", model, *flags)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: the times of {path} start at t = -1e-06 s; ")
        assert err.count("\n") == 1

    def test_flag_grid_at_zero_against_ode_is_usage_error(self, tpp, capsys):
        flags = tpp_flags(tpp, t_start=0.0)[3:]
        code, _, err = run(capsys, "compare", "--a", "analytic", "--b", "ode-bloch", *flags)
        assert code == EXIT_USAGE
        assert "--t-start > 0" in err

    @pytest.mark.parametrize(
        "order, flags, named",
        [
            ("model-file", ("--t-start", "5", "--t-max", "1", "--samples", "3"), "--t-start 5.0"),
            ("model-file", ("--t-max", "1"), "--t-max 1.0"),
            ("file-model", ("--t-start", "1e-9"), "--t-start 1e-09"),
            ("file-model", ("--samples", "3"), "--samples 3"),
            ("file-file", ("--t-max", "6e-4", "--samples", "251"), "--t-max 0.0006"),
        ],
        ids=["start-after-max", "t-max", "ode-default-start", "samples", "two-files"],
    )
    def test_grid_flag_that_contradicts_the_file_is_usage_error(
        self, tpp, record, capsys, order, flags, named
    ):
        model = tpp_flags(tpp)[3:-4]  # the field and decay flags, without the grid
        a, b = {
            "model-file": ("analytic", record),
            "file-model": (record, "analytic"),
            "file-file": (record, record),
        }[order]
        code, out, err = run(capsys, "compare", "--a", a, "--b", b, *model, *flags)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: {named} ") and err.count("\n") == 1
        assert record in err

    def test_grid_flags_that_match_the_file_are_accepted(self, tpp, record, capsys):
        flags = tpp_flags(tpp)[3:]  # the file's own --t-max 500e-6 and --samples 251
        code, out, _ = run(
            capsys, "compare", "--a", "analytic", "--b", record, *flags, "--t-start", "0", "--json"
        )
        assert code == EXIT_OK
        assert json.loads(out)["overall"] == 0.0

    def test_two_files_need_no_model_flags(self, record, capsys):
        code, _, _ = run(capsys, "compare", "--a", record, "--b", record, "--rabi-hz", "-1")
        assert code == EXIT_OK

    def test_file_against_model_takes_the_file_grid(self, tpp, record, capsys):
        flags = tpp_flags(tpp)[3:-4]  # without --t-max and --samples
        code, out, _ = run(capsys, "compare", "--a", "analytic", "--b", record, *flags, "--json")
        assert code == EXIT_OK
        assert json.loads(out)["overall"] == 0.0

    def test_human_readable_output(self, tpp, tmp_path, capsys):
        csv_path = tmp_path / "h.csv"
        run(capsys, *tpp_flags(tpp, samples=51, extra=("--out", str(csv_path))))
        code, out, _ = run(capsys, "compare", "--a", str(csv_path), "--b", str(csv_path))
        assert code == EXIT_OK
        assert "min fidelity" in out


class TestCompareReadsAnyWellFormedTable:
    """compare takes any table the reader parses; the fit's record rules stay with fit."""

    @pytest.mark.parametrize("samples", range(2, 8))
    @pytest.mark.parametrize("against", ["itself", "analytic"])
    def test_short_simulate_table(self, tpp, tmp_path, capsys, samples, against):
        path = tmp_path / "short.csv"
        assert run(capsys, *tpp_flags(tpp, samples=samples, extra=("--out", str(path))))[0] == EXIT_OK
        other = str(path) if against == "itself" else "analytic"
        model = tpp_flags(tpp)[3:-4]  # the field and decay flags, without the grid
        code, out, err = run(capsys, "compare", "--a", str(path), "--b", other, *model, "--json")
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["overall"] == 0.0

    @pytest.mark.parametrize("against", ["itself", "analytic"])
    def test_table_beyond_the_fit_bound(self, tmp_path, capsys, against):
        path = table(tmp_path / "big.csv", [(i * 1e-4, 0.0, 0.0, 2.0) for i in range(10)])
        other = path if against == "itself" else "analytic"
        code, out, err = run(capsys, "compare", "--a", path, "--b", other, "--rabi-hz", "1e3", "--json")
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["max_abs"]["mz"] == (0.0 if against == "itself" else 3.0)

    @pytest.mark.parametrize("decay", [(), ("--mu", "1e3", "--delta-mu-ratio", "2", "--nu", "0.1")])
    @pytest.mark.parametrize("model", ["ode-bloch", "ode-density"])
    def test_one_row_table_against_an_ode_model(self, tmp_path, capsys, decay, model):
        path = table(tmp_path / "one.csv", [(1e-3, 0.0, 0.0, 1.0)])
        code, out, err = run(capsys, "compare", "--a", path, "--b", model, "--rabi-hz", "1e3", *decay)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: {path} has one row; the ODE models integrate between at least two times\n"

    def test_one_row_table_against_the_closed_form(self, tmp_path, capsys):
        path = table(tmp_path / "one.csv", [(0.0, 0.0, 0.0, 1.0)])
        code, out, err = run(capsys, "compare", "--a", path, "--b", "analytic", "--rabi-hz", "1e3", "--json")
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["overall"] == 0.0

    @pytest.mark.parametrize("flag", ["--json", None])
    def test_overflowing_deviation_is_a_numerical_failure(self, tmp_path, capsys, flag):
        # |r|^2 of 1e200 overflows: the fidelity cannot be formed, and no warning leaks.
        rows = [(i * 1e-4, 1e200, 0.0, -1e200) for i in range(3)]
        path = table(tmp_path / "huge.csv", rows)
        argv = ["compare", "--a", path, "--b", "analytic", "--rabi-hz", "1e3"] + ([flag] if flag else [])
        code, out, err = run(capsys, *argv)
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert err == f"numerical failure: comparing {path} with analytic overflows\n"


class TestThermal:
    def test_reference_values(self, capsys):
        code, out, _ = run(capsys, "thermal", "--larmor-hz", "161.973e6", "--temperature", "297.15")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["epsilon_high_t"] == pytest.approx(1.304e-5, rel=5e-3)
        assert abs(payload["epsilon_high_t"] / payload["epsilon_exact"] - 1.0) <= 1e-10
        assert payload["partition_function"] == pytest.approx(2.0, abs=1e-9)
        eig = payload["eigenvalues"]
        assert eig[0] + eig[1] == pytest.approx(1.0, abs=1e-15)
        assert eig[0] - eig[1] == pytest.approx(payload["epsilon_exact"], rel=1e-12)

    @pytest.mark.parametrize(
        "larmor_hz, temperature",
        [(161.973e6, 297.15), (1e6, 297.15), (1e9, 4.2), (1.0, 1e6)],
    )
    def test_fields_are_bit_identical_to_the_formulas(self, capsys, larmor_hz, temperature):
        flags = ("--larmor-hz", repr(larmor_hz), "--temperature", repr(temperature))
        code, out, _ = run(capsys, "thermal", *flags)
        assert code == EXIT_OK
        payload = json.loads(out)
        x = HBAR * (2.0 * math.pi * larmor_hz) / (2.0 * KB * temperature)
        eps = math.tanh(x)
        want = {
            "epsilon_high_t": [x],
            "epsilon_exact": [eps],
            "partition_function": [2.0 * math.cosh(x)],
            "eigenvalues": [0.5 * (1.0 + eps), 0.5 * (1.0 - eps)],
        }
        for key, values in want.items():
            got = payload[key] if key == "eigenvalues" else [payload[key]]
            assert [v.hex() for v in got] == [v.hex() for v in values], key

    def test_nonpositive_inputs_rejected(self, capsys):
        code, _, _ = run(capsys, "thermal", "--larmor-hz", "-5.0")
        assert code == EXIT_USAGE
        code, _, _ = run(capsys, "thermal", "--larmor-hz", "1e6", "--temperature", "0.0")
        assert code == EXIT_USAGE

    def test_default_temperature_is_room_temperature(self, capsys):
        code, out, _ = run(capsys, "thermal", "--larmor-hz", "1e6")
        assert code == EXIT_OK
        assert json.loads(out)["temperature_k"] == ROOM_TEMPERATURE_K

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "larmor_hz, temperature",
        [("1e6", "1e-320"), ("1e300", "1e-300"), ("1e200", "297.15")],
    )
    def test_overflowing_thermal_argument_names_the_flags(self, capsys, larmor_hz, temperature):
        # hbar w_L / 2 kB T is not finite (2 kB T underflows to 0, or the
        # quotient overflows), or it is finite and its cosh overflows.
        flags = ("--larmor-hz", larmor_hz, "--temperature", temperature)
        code, out, err = run(capsys, "thermal", *flags)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--larmor-hz" in err and "--temperature" in err

    def test_non_finite_result_is_not_written_as_json(self):
        # No thermal flags reach an infinite field now; the JSON writer still refuses one.
        with pytest.raises(ValueError):
            cli._json_text({"schema_version": "1", "epsilon_high_t": math.inf})


class TestSharedParser:
    """main() parses with one parser per process; no call may leave state in it."""

    def _run_calls(self, tpp, directory, capsys, fresh):
        directory.mkdir()
        record = str(directory / "record.csv")
        calls = [
            tpp_flags(tpp, extra=("--noise", "0.01", "--seed", "7", "--out", record)),
            tpp_flags(tpp, samples=31, extra=("--format", "json")),
            ["fit", record, "--fix-ratio", "11.5", "--seed", "7"],
            ["fit", record, "--out", str(directory / "free.json")],
            tpp_flags(tpp, extra=("--rabi-hz", "abc")),
            ["--help"],
            ["simulate", "--help"],
            ["thermal", "--larmor-hz", "1e6"],
        ]
        results = []
        for argv in calls:
            if fresh:
                cli.build_parser.cache_clear()
            results.append(run(capsys, *argv))
        files = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
        return results, files

    def test_calls_match_a_fresh_parser(self, tpp, tmp_path, capsys):
        fresh = self._run_calls(tpp, tmp_path / "fresh", capsys, fresh=True)
        assert [code for code, _, _ in fresh[0]] == [0, 0, 0, 0, EXIT_USAGE, 0, 0, 0]
        for name in ("shared-1", "shared-2"):
            assert self._run_calls(tpp, tmp_path / name, capsys, fresh=False) == fresh


class TestEntryPoints:
    def test_unknown_command_is_usage_error(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_help_exits_cleanly(self, capsys):
        assert run(capsys, "--help")[0] == EXIT_OK

    def test_long_ode_horizon_is_refused_quickly(self, tpp):
        # ~4.4M RK4 steps would run for minutes; the step budget refuses first.
        # A subprocess with a timeout, so a missing budget fails the test.
        argv = tpp_flags(tpp, model="ode-bloch", extra=("--t-max", "1"))
        proc = subprocess.run(
            [sys.executable, "-m", "nhbloch.cli", *argv],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == EXIT_NUMERICAL
        assert proc.stdout == ""
        assert proc.stderr.startswith("numerical failure: integrating to t = 1.0 s")
        assert "--model analytic" in proc.stderr

    @pytest.mark.parametrize(
        "argv, code",
        [(["thermal", "--larmor-hz", "1e6"], EXIT_OK), (["thermal"], EXIT_USAGE)],
    )
    def test_console_script_exits_with_the_code_of_main(self, monkeypatch, capsys, argv, code):
        monkeypatch.setattr(sys, "argv", ["nhbloch", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.entrypoint()
        assert exc.value.code == code
        capsys.readouterr()

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nhbloch.cli", "thermal", "--larmor-hz", "1e6"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["schema_version"] == "1"
