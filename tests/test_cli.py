import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from nhbloch import cli
from nhbloch import table as table_io
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

    @pytest.mark.parametrize("model", ["ode-bloch", "ode-density"])
    def test_ode_seeded_where_the_damping_overflows_names_the_time(self, model, capsys):
        # g(t) ~ 1/(2t) overflows at a subnormal seed: both forms refuse the
        # first rates they read, by one message that names the time and the
        # rates, of which only lambda_z = g r0_z overflows.
        flags = "--rabi-hz 1000 --mu 1000 --delta-mu-ratio 2 --nu 0.1 --t-max 1e-3 --t-start 1e-320 --samples 3"
        code, out, err = run(capsys, "simulate", "--model", model, *flags.split())
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert err == (
            "numerical failure: the damping rates (3141.592638339921, -0.0, inf) at t = 1e-320 s are not finite\n"
        )


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

    @pytest.mark.parametrize("field", [("1e160", "0", "0"), ("2e153", "2e153", "0")])
    def test_field_whose_norm_overflows(self, capsys, field):
        # Without this refusal the infinite norm is refused as an overflowing angle instead.
        err = self.refused(capsys, "simulate", "--field-hz", *field, *self.GRID)
        flags = " ".join(repr(float(w)) for w in field)
        assert err == f"error: the field of --field-hz {flags} Hz is out of range (its norm overflows)\n"

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
        "grid, message",
        [
            pytest.param(grid, message, id=grid)
            for grid, message in [
                ("--t-max 0", "--t-max 0.0 must exceed the default start time 0.0 s"),
                ("--t-max=-1e-3", "--t-max -0.001 must exceed the default start time 0.0 s"),
                (
                    "--t-start 1e-3 --t-max 1e-3",
                    "--t-max 0.001 must exceed --t-start 0.001",
                ),
                (
                    "--t-start 1e-3 --t-max 1e-4",
                    "--t-max 0.0001 must exceed --t-start 0.001",
                ),
                # The ODE models with decay start at 1e-9 by default.
                (
                    "--model ode-bloch --mu 1e3 --delta-mu-ratio 2 --nu 0.1 --t-max 1e-9",
                    "--t-max 1e-09 must exceed the default start time 1e-09 s"
                    " (the seed of the ODE models with decay; --t-start sets it)",
                ),
            ]
        ],
    )
    def test_t_max_at_or_below_the_start(self, capsys, grid, message):
        err = self.refused(capsys, "simulate", "--rabi-hz", "1e3", *grid.split())
        assert err == f"error: {message}\n"

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
        assert err == "error: --guess: decay rates must be positive\n"

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

    def test_long_record_fit_is_independent_of_blas_threads(self, tpp, tmp_path, capsys):
        # OpenBLAS splits a dot product of more than 10,000 elements across its
        # threads, and the sum's rounding then follows the thread count: this
        # fit wrote different JSON under OPENBLAS_NUM_THREADS=1 and =2.
        record = tmp_path / "noisy-20k.csv"
        noise = ("--noise", "0.01", "--seed", "3", "--out", str(record))
        assert run(capsys, *tpp_flags(tpp, samples=20_000, extra=noise))[0] == EXIT_OK
        outputs = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "nhbloch.cli", "fit", str(record), "--fix-ratio", "11.5"],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
                capture_output=True,
                timeout=60,
            )
            assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

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
        assert err == (
            "numerical failure: the fit stopped at its cap of 200 LM iterations without converging;"
            " a free fit can drift along the delta ~ mu ridge, and --fix-ratio pins delta = ratio * mu\n"
        )

    def test_ratio_pinned_fit_at_the_cap(self, tmp_path, capsys):
        # The cap's hint names the pin that is already given, not --fix-ratio as a cure.
        record = tmp_path / "fast-decay.csv"
        flags = "--rabi-hz 1000 --t-max 0.02 --samples 8 --mu 1e3 --nu 1e-3 --delta-mu-ratio 1e3"
        run(capsys, "simulate", *flags.split(), "--out", str(record))
        code, out, err = run(capsys, "fit", str(record), "--fix-ratio", "1000")
        assert code == EXIT_NUMERICAL
        payload = json.loads(out)
        assert (payload["converged"], payload["iterations"]) == (False, 200)
        assert err == (
            "numerical failure: the fit stopped at its cap of 200 LM iterations without converging,"
            " with delta pinned at 1000.0 * mu by --fix-ratio\n"
        )

    def test_ratio_pinned_fit_that_leaves_the_float_range(self, tmp_path, capsys):
        # A pin a thousand times the record's ratio: a trial step takes delta to inf.
        record = tmp_path / "fast-decay.csv"
        flags = "--rabi-hz 1000 --t-max 0.003 --samples 40 --mu 1e3 --nu 1e-3 --delta-mu-ratio 100"
        run(capsys, "simulate", *flags.split(), "--out", str(record))
        code, out, err = run(capsys, "fit", str(record), "--fix-ratio", "1e6")
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert err.startswith("numerical failure: a trial step of LM iteration ") and err.count("\n") == 1
        assert "took the fit out of the float range (delta = inf, mu = " in err
        assert err.endswith("; the record does not pin mu with delta pinned at 1000000.0 * mu by --fix-ratio\n")

    @pytest.mark.parametrize(
        "flags, message",
        [
            # The free LM coordinate log(delta / mu - 1) cannot hold delta / mu = 1e608.
            (("--guess", "1e308", "1e-300", "0.1", "1000"), "delta / mu overflows, got delta=1e+308, mu=1e-300"),
            # Pinned, delta = ratio * mu = 1e310.
            (
                ("--guess", "1e10", "1e10", "0.1", "1000", "--fix-ratio", "1e300"),
                "ratio * mu overflows, got ratio=1e+300, mu=10000000000.0",
            ),
        ],
        ids=["free", "pinned"],
    )
    def test_guess_whose_delta_overflows(self, record, capsys, flags, message):
        # numpy used to warn before a "non-finite Jacobian" failure.
        code, out, err = run(capsys, "fit", record, *flags)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: --guess: {message}\n"

    def test_guess_rabi_hz_whose_angular_frequency_overflows(self, record, capsys):
        # RABI_HZ goes through the Hz conversion of every other Hz flag, whose
        # message names the value typed.
        code, out, err = run(capsys, "fit", record, "--guess", "6000", "525", "0.06", "1e308")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: --guess 1e+308 Hz is out of range (2*pi times it overflows)\n"

    def test_record_that_starts_before_zero(self, tmp_path, capsys):
        # f(t) > 1 before t = 0; the fit used to fail with a float-range message.
        record = tmp_path / "early.csv"
        flags = "--rabi-hz 1000 --t-start -0.002 --t-max 0.001 --samples 64 --noise 0.01 --seed 2"
        assert run(capsys, "simulate", *flags.split(), "--out", str(record))[0] == EXIT_OK
        code, out, err = run(capsys, "fit", str(record))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            f"error: {record}: the times start at t = -0.002 s;"
            " the decay f(t) holds for t >= 0 only (|r| > 1 before t = 0)\n"
        )

    # Records whose decay (delta = 1e6 / s) is over before the second sample:
    # a free fit's trial step takes mu to 0 (the first) or delta to inf (the
    # second, where numpy used to warn first). Rejecting such a step and going
    # on let the first record "converge" to delta = 1.2e45 and rabi_hz = 50.8.
    @pytest.mark.parametrize(
        "grid, rates",
        [
            ("--t-max 0.02 --samples 8", "delta = 0.0, mu = 0.0 1/s"),
            ("--t-max 0.003 --samples 40 --noise 0.05 --seed 1", "delta = inf, mu = "),
        ],
    )
    def test_free_fit_that_leaves_the_float_range(self, tmp_path, capsys, grid, rates):
        record = tmp_path / "fast-decay.csv"
        flags = "--rabi-hz 1000 --mu 1e3 --nu 1e-3 --delta-mu-ratio 1e3 " + grid
        run(capsys, "simulate", *flags.split(), "--out", str(record))
        code, out, err = run(capsys, "fit", str(record))
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert err.startswith("numerical failure: a trial step of LM iteration ") and err.count("\n") == 1
        assert f"took the fit out of the float range ({rates}" in err
        assert err.endswith("; the record does not pin delta and mu, and --fix-ratio pins delta = ratio * mu\n")

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
CHUNK = table_io._CSV_CHUNK_ROWS


def awkward_columns(rows, with_purity=True):
    return [np.resize(np.roll(AWKWARD, k), rows) for k in range(5 if with_purity else 4)]


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestCsvWriter:
    @pytest.mark.parametrize("offset", [None, -1, 0, 1])
    @pytest.mark.parametrize("with_purity", [True, False])
    def test_bytes_match_per_row_repr(self, offset, with_purity, tmp_path):
        cols = awkward_columns(1 if offset is None else CHUNK + offset, with_purity)
        out = tmp_path / "w.csv"
        table_io._write_text(str(out), table_io._csv_text(*cols))
        assert out.read_bytes() == reference_csv(*cols).encode("utf-8")

    def test_stdout_matches_per_row_repr(self, capsys):
        cols = awkward_columns(CHUNK + 1)
        table_io._write_text(None, table_io._csv_text(*cols))
        assert capsys.readouterr().out == reference_csv(*cols)

    @pytest.fixture
    def forks(self, monkeypatch):
        """The os.fork calls, each made by the real fork; tables from one chunk and a row up get a worker."""
        if not (sys.platform == "linux" and len(os.sched_getaffinity(0)) >= 2):
            pytest.skip("the two-process path needs Linux and two CPUs")
        monkeypatch.setattr(table_io, "_PARALLEL_MIN_ROWS", CHUNK + 1)
        calls, fork = [], os.fork

        def counted():
            calls.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        return calls

    @pytest.mark.parametrize("extra_rows", [1, CHUNK - 1, CHUNK, 2 * CHUNK + 5])
    @pytest.mark.parametrize("with_purity", [True, False])
    @pytest.mark.parametrize("to_file", [True, False])
    def test_two_processes_match_per_row_repr(self, forks, tmp_path, capsys, extra_rows, with_purity, to_file):
        cols = awkward_columns(CHUNK + extra_rows, with_purity)
        out = tmp_path / "w.csv"
        table_io._write_text(str(out) if to_file else None, table_io._csv_text(*cols))
        written = out.read_text() if to_file else capsys.readouterr().out
        assert written == reference_csv(*cols)
        assert len(forks) == 1
        assert_no_child()

    @pytest.mark.parametrize("stop", ["close", "interrupt", "failed write"])
    def test_early_exit_leaves_no_child(self, forks, monkeypatch, stop):
        chunks = table_io._csv_text(*awkward_columns(3 * CHUNK))
        if stop == "failed write":

            class FullStdout:
                def writelines(self, lines):
                    next(lines)
                    raise OSError(28, "No space left on device")

            monkeypatch.setattr(sys, "stdout", FullStdout())
            with pytest.raises(OSError, match="No space left"):
                table_io._write_text(None, chunks)
        else:
            assert next(chunks) == "t,mx,my,mz,purity\n"
            if stop == "close":
                chunks.close()
            else:
                with pytest.raises(KeyboardInterrupt):
                    chunks.throw(KeyboardInterrupt)
        assert len(forks) == 1
        assert_no_child()

    @pytest.mark.parametrize("fault, status", [("raises", 1), ("stops short", 0), ("exits 3", 3)])
    def test_failed_worker_is_an_error_and_leaves_no_file(
        self, forks, tpp, tmp_path, capsys, monkeypatch, fault, status
    ):
        # The worker formats from a row past 0, the parent from row 0.
        samples = 2 * CHUNK + 1
        rows = {"raises": 0, "stops short": 1, "exits 3": samples - CHUNK}[fault]
        chunks, exit_ = table_io._csv_chunks, os._exit

        def faulty(table, row, start, stop):
            if start > 0 and fault == "raises":
                raise RuntimeError("formatting fault")
            return chunks(table, row, start, start + 1 if start > 0 and fault == "stops short" else stop)

        monkeypatch.setattr(table_io, "_csv_chunks", faulty)
        if fault == "exits 3":
            monkeypatch.setattr(os, "_exit", lambda code: exit_(code + 3))
        out = tmp_path / "table.csv"
        code, _, err = run(capsys, *tpp_flags(tpp, samples=samples, extra=("--out", str(out))))
        assert code == EXIT_USAGE
        assert err == (
            f"error: the CSV formatting worker exited with status {status} after {rows}"
            f" of its {samples - CHUNK} rows\n"
        )
        assert list(tmp_path.iterdir()) == []
        assert len(forks) == 1
        assert_no_child()

    def test_failed_fork_formats_on_one_process(self, forks, tmp_path, monkeypatch):
        def fork():
            forks.append(None)
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        cols = awkward_columns(2 * CHUNK + 5)
        out = tmp_path / "w.csv"
        table_io._write_text(str(out), table_io._csv_text(*cols))
        assert out.read_text() == reference_csv(*cols)
        assert len(forks) == 1
        assert_no_child()

    def test_simulate_emits_no_warning(self, forks, tpp, tmp_path, capsys):
        # Python 3.12 and later warn on a fork in a process with threads, and
        # numpy's OpenBLAS pool makes this one such.
        out = tmp_path / "table.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, *tpp_flags(tpp, samples=3 * CHUNK, extra=("--out", str(out))))
        assert (code, err) == (EXIT_OK, "")
        assert len(forks) == 1
        assert_no_child()


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


def valid_across_chunks(ncols, newline):
    """The valid file of TestCsvReader.test_valid_file_across_chunks: 2 chunks and 3 rows, two blank lines."""
    rows = csv_rows(2 * table_io._CSV_CHUNK_ROWS + 3, ncols)
    lines = ["t,mx,my,mz" + (",purity" if ncols == 5 else "")] + rows[:7] + ["", "  "] + rows[7:]
    return newline.join(lines) + newline


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


READER_CASES = reader_cases(table_io._CSV_CHUNK_ROWS)


def agreement_cases():
    """Files on which numpy's tokenizer and the per-line parser could differ, and whether the fast path answers.

    Each guard of table_io._read_plain has a case here that fails without it: the
    byte set (unit separator, vertical tab, form feed, BOM, non-ASCII digit),
    the header, the column count, comments=None ('#'), the warning fallback
    (header only) and ndmin=1 (one row).
    """
    rows = csv_rows(12, 5)
    rec4 = "t,mx,my,mz\n" + "".join(row[: row.rindex(",")] + "\n" for row in rows)
    rec5 = "t,mx,my,mz,purity\n" + "".join(row + "\n" for row in rows)
    cases = {
        "plain-4": (rec4, True),
        "plain-5": (rec5, True),
        "one-row": ("t,mx,my,mz\n0.5,0.0,0.0,1.0\n", True),
        "no-final-newline": (rec4.rstrip("\n"), True),
        "crlf": (rec5.replace("\n", "\r\n"), True),
        "lone-cr": (rec5.replace("\n", "\r"), True),
        "padded-header-and-fields": (" t,mx,my,mz\t\n 0.5 ,\t0.0,0.0 , 1.0\n", True),
        "empty-lines": (rec4.replace("\n", "\n\n"), True),
        "purity-text": (rec5.replace(",1.0\n", ",n/a\n"), True),
        "purity-empty": (rec5.replace(",1.0\n", ",\n"), True),
        "purity-hash": (rec5.replace(",1.0\n", ",#1\n"), True),
        "whitespace-lines": (rec4.replace("\n", "\n \t\n", 3), False),
        "underscore-digits": (rec4 + "1_0,0.0,0.0,1.0\n", False),
        "arabic-indic-digit": (rec4 + "\u0661\u0660,0.0,0.0,1.0\n", False),
        "bom": ("\ufeff" + rec4, False),
        "unit-separator": (rec4 + "10.0,0.0,0.0,1.0\x1f\n", False),
        "vertical-tab-after-comma": (rec4 + "10.0,\x0b0.0,0.0,1.0\n", False),
        "form-feed-after-comma": (rec4 + "10.0,\x0c0.0,0.0,1.0\n", False),
        "hash-in-field": (rec4 + "10.0,0.0,0.0,1.0#x\n", False),
        "hash-line": (rec4 + "#10.0,0.0,0.0,1.0\n", False),
        "row-4-in-5": (rec5 + "10.0,0.0,0.0,1.0\n", False),
        "row-6-in-5": (rec5 + "10.0,0.0,0.0,1.0,1.0,1.0\n", False),
        "row-5-in-4": (rec4 + "10.0,0.0,0.0,1.0,1.0\n", False),
        "empty-field": (rec4 + "10.0,,0.0,1.0\n", False),
        "bad-header": (rec4.replace("t,mx", "t,x", 1), False),
        "header-only": ("t,mx,my,mz\n\n", False),
    }
    for name, (text, _) in READER_CASES.items():
        cases[f"reader-{name}"] = (text, None)
    for ncols in (4, 5):
        for name, newline in (("lf", "\n"), ("crlf", "\r\n")):
            cases[f"valid-across-chunks-{ncols}-{name}"] = (valid_across_chunks(ncols, newline), None)
    return cases


AGREEMENT_CASES = agreement_cases()


def read_plain(path):
    """table_io._read_plain of the file at ``path``, opened as table_io._read_series opens it."""
    with open(path, "rb", buffering=0) as handle:
        return table_io._read_plain(handle, str(path))


def parse_lines(path):
    """table_io._parse_lines of the file at ``path``, opened as table_io._read_series opens it."""
    with open(path, "rb", buffering=0) as handle:
        return table_io._parse_lines(handle, str(path))


def bits(columns):
    """Shape and bytes of each column, so that -0.0 and 0.0, or two NaNs, are told apart."""
    return [(column.shape, np.ascontiguousarray(column).tobytes()) for column in columns]


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
        rows = csv_rows(2 * table_io._CSV_CHUNK_ROWS + 3, ncols)
        lines = [header] + rows[:7] + ["", "  "] + rows[7:]
        path = tmp_path / "ok.csv"
        path.write_bytes((newline.join(lines) + newline).encode("utf-8"))
        series = table_io._read_series(str(path))
        expected = np.array([[float(x) for x in row.split(",")[:4]] for row in rows])
        np.testing.assert_array_equal(np.column_stack([series.times, series.bloch]), expected)

    def test_undecodable_bytes_are_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        lines = ["t,mx,my,mz"] + csv_rows(2 * table_io._CSV_CHUNK_ROWS, 4)
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8") + b"0.5,\xff,0.0,1.0\n")
        code, _, err = run(capsys, "fit", str(path))
        assert code == EXIT_USAGE
        assert err == f"error: {path}: not UTF-8 text (invalid start byte)\n"

    def test_undecodable_byte_is_named_before_an_earlier_bad_line(self, tmp_path, capsys):
        # The per-line parser decodes the whole file first, so the rule does
        # not depend on how far ahead a reader buffers.
        path = tmp_path / "mixed.csv"
        lines = with_line(["t,mx,my,mz"] + csv_rows(2 * table_io._CSV_CHUNK_ROWS, 4), 3, "oops,0.0,0.0,1.0")
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8") + b"0.5,\xff,0.0,1.0\n")
        code, _, err = run(capsys, "fit", str(path))
        assert code == EXIT_USAGE
        assert err == f"error: {path}: not UTF-8 text (invalid start byte)\n"

    def test_refused_plain_file_is_opened_once(self, tmp_path, capsys, monkeypatch):
        # numpy refuses the table and the per-line parser names the line, both from one open file.
        lines = with_line(["t,mx,my,mz"] + csv_rows(20, 4), 5, "1.0,oops,0.0,1.0")
        path = tmp_path / "bad.csv"
        path.write_bytes(("\n".join(lines) + "\n").encode("ascii"))
        opened = []
        monkeypatch.setattr(
            table_io, "open", lambda *args, **kwargs: opened.append(args[0]) or open(*args, **kwargs), raising=False
        )
        code, out, err = run(capsys, "fit", str(path))
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {path}:5: could not convert string to float: 'oops'\n")
        assert opened == [str(path)]

    @pytest.mark.parametrize("case", list(AGREEMENT_CASES))
    def test_fast_path_agrees_with_the_per_line_parser(self, case, tmp_path):
        text, fast_answers = AGREEMENT_CASES[case]
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        fast = read_plain(path)
        if fast_answers is not None:
            assert (fast is not None) == fast_answers
        try:
            slow = parse_lines(path)
        except table_io.UsageError:
            assert fast is None
            return
        if fast is not None:
            assert bits(fast) == bits(slow)

    @pytest.mark.parametrize("ncols", [4, 5])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_fast_path_reads_awkward_numbers_bit_for_bit(self, ncols, newline, tmp_path):
        header = "t,mx,my,mz" + (",purity" if ncols == 5 else "")
        words = [repr(float(v)) for v in AWKWARD] + ["1e308", "-2.5E-310", "+.5", "7.", "0001.25"]
        rows = [
            ",".join([repr(i * 1e-6)] + [words[(i + k) % len(words)] for k in range(ncols - 1)]) for i in range(999)
        ]
        path = tmp_path / "ok.csv"
        path.write_bytes((newline.join([header] + rows) + newline).encode("utf-8"))
        fast = read_plain(path)
        assert fast is not None
        assert bits(fast) == bits(parse_lines(path))
        # Copies, not views of the row records: every vector operation of a fit runs on them.
        assert all(column.flags.c_contiguous and column.flags.aligned for column in fast)

    def test_pipe_is_read_by_the_per_line_parser(self, tmp_path):
        path = tmp_path / "rec.csv"
        assert main(["simulate", "--rabi-hz", "1000", "--t-max", "1e-3", "--out", str(path)]) == EXIT_OK
        argv = ["compare", "--a", "/dev/stdin", "--b", "analytic", "--rabi-hz", "1000", "--json"]
        proc = subprocess.run(
            [sys.executable, "-m", "nhbloch.cli", *argv], input=path.read_bytes(), capture_output=True, timeout=60
        )
        assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
        assert json.loads(proc.stdout)["overall"] == 0.0

    def test_reader_applies_no_fit_rule(self, tmp_path):
        path = table(tmp_path / "rec.csv", [(0.0, 0.0, 0.0, 2.0)])
        np.testing.assert_array_equal(table_io._read_series(path).bloch, [[0.0, 0.0, 2.0]])

    def test_purity_column_is_not_parsed(self, tmp_path):
        lines = ["t,mx,my,mz,purity"] + [row[: row.rindex(",")] + ",n/a" for row in csv_rows(9, 5)]
        path = tmp_path / "p.csv"
        path.write_text("\n".join(lines) + "\n")
        series = table_io._read_series(str(path))
        assert len(series) == 9
        np.testing.assert_array_equal(series.bloch[:, 0], [math.sin(i) for i in range(9)])


def split_of(data: bytes) -> int:
    """Where the two-process reader splits ``data``: just after the first LF at or after the byte midpoint."""
    newline = data.find(b"\n", len(data) // 2)
    return len(data) if newline < 0 else newline + 1


def insert_at_split(lines, inserted, newline, where):
    """``lines`` with ``inserted`` lines placed just "before" or just "after" the reader's split of the file.

    Leading zeros on the last row's m_y field ("0.0" of csv_rows) move the
    midpoint a byte at a time without changing any number.
    """
    middle = len(lines) // 2
    for pad in range(80):
        padded = lines[:-1] + [lines[-1].replace(",0.0,", "," + "0" * pad + "0.0,", 1)]
        for index in range(middle - 3, middle + 3):
            candidate = padded[:index] + inserted + padded[index:]
            data = (newline.join(candidate) + newline).encode("ascii")
            boundary = index + (len(inserted) if where == "before" else 0)
            if split_of(data) == len(newline.join(candidate[:boundary]) + newline):
                return candidate
    raise AssertionError("no insertion point lands on the split")


class TestSplitReader:
    """The reader on two processes: the threshold lowered to one byte, each fork made by the real os.fork."""

    ROWS = 2000

    @pytest.fixture
    def forks(self, monkeypatch):
        if not (sys.platform == "linux" and len(os.sched_getaffinity(0)) >= 2):
            pytest.skip("the two-process path needs Linux and two CPUs")
        monkeypatch.setattr(table_io, "_PARALLEL_MIN_BYTES", 1)
        calls, fork = [], os.fork

        def counted():
            calls.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        return calls

    @staticmethod
    def one_process(path, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(table_io, "_PARALLEL_MIN_BYTES", 1 << 62)
            return read_plain(path)

    def write(self, tmp_path, lines, newline="\n"):
        path = tmp_path / "split.csv"
        path.write_bytes((newline.join(lines) + newline).encode("utf-8"))
        return str(path)

    @pytest.mark.parametrize("ncols", [4, 5])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_same_arrays_as_one_process(self, forks, tmp_path, monkeypatch, ncols, newline):
        header = "t,mx,my,mz" + (",purity" if ncols == 5 else "")
        words = [repr(float(v)) for v in AWKWARD] + ["1e308", "-2.5E-310", "+.5", "7.", "0001.25"]
        rows = [
            ",".join([repr(i * 1e-6)] + [words[(i + k) % len(words)] for k in range(ncols - 1)])
            for i in range(self.ROWS)
        ]
        path = self.write(tmp_path, [header] + rows, newline)
        two = read_plain(path)
        assert two is not None
        assert bits(two) == bits(self.one_process(path, monkeypatch)) == bits(parse_lines(path))
        assert all(column.flags.c_contiguous and column.flags.aligned for column in two)
        assert len(forks) == (0 if newline == "\r" else 1)  # CR-only has no LF to split at
        assert_no_child()

    @pytest.mark.parametrize("ncols", [4, 5])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("inserted", [[""], ["", ""], ["  "], ["", "\t ", ""]])
    @pytest.mark.parametrize("where", ["before", "after"])
    def test_blank_lines_at_the_split(self, forks, tmp_path, monkeypatch, ncols, newline, inserted, where):
        header = "t,mx,my,mz" + (",purity" if ncols == 5 else "")
        lines = insert_at_split([header] + csv_rows(self.ROWS, ncols), inserted, newline, where)
        path = self.write(tmp_path, lines, newline)
        two = read_plain(path)
        slow = parse_lines(path)
        if all(line == "" for line in inserted):
            assert two is not None  # empty lines are no refusal
        series = table_io._read_series(path)
        assert bits([series.times, series.bloch]) == bits(slow)
        if two is not None:
            assert bits(two) == bits(self.one_process(path, monkeypatch)) == bits(slow)
        assert len(forks) == 2
        assert_no_child()

    def test_crlf_cut_between_two_reads(self, forks, tmp_path, monkeypatch):
        # Leading zeros on the m_y field of the last row that ends in the
        # first 64 KiB read move its CR to the read's last byte, its LF after.
        lines = ["t,mx,my,mz"] + csv_rows(self.ROWS, 4)
        block = table_io._PIPE_READ_BYTES
        ends = np.cumsum([len(line) + 2 for line in lines]) - 2  # the offset of each line's CR
        last = int(np.searchsorted(ends, block - 1, side="right")) - 1
        pad = block - 1 - int(ends[last])
        lines[last] = lines[last].replace(",0.0,", "," + "0" * pad + "0.0,", 1)
        data = ("\r\n".join(lines) + "\r\n").encode("ascii")
        assert data[block - 1 : block + 1] == b"\r\n"
        path = tmp_path / "crlf.csv"
        path.write_bytes(data)
        one = self.one_process(str(path), monkeypatch)
        assert one is not None
        assert bits(one) == bits(read_plain(path)) == bits(parse_lines(path))
        assert len(forks) == 1
        assert_no_child()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("1.0,oops,0.0,1.0", "could not convert string to float: 'oops'"),
            ("#10.0,0.0,0.0,1.0", "could not convert string to float: '#10.0'"),
            ("0.5,\u00e9,0.0,1.0", "could not convert string to float: '\u00e9'"),
            ("1.0,2.0,3.0", "expected 4 columns, got 3"),
        ],
    )
    def test_fault_in_the_back_half_only(self, forks, tmp_path, capsys, line, message):
        lines = ["t,mx,my,mz"] + csv_rows(self.ROWS, 4)
        lineno = len(lines) - 10
        path = self.write(tmp_path, with_line(lines, lineno, line))
        with open(path, "rb") as handle:
            data = handle.read()
        assert data.index(line.encode("utf-8")) > split_of(data)
        code, out, err = run(capsys, "fit", path)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {path}:{lineno}: {message}\n")
        assert len(forks) == 1
        assert_no_child()

    @pytest.mark.parametrize("case", list(READER_CASES))
    def test_malformed_file_message(self, forks, case, tmp_path, capsys):
        text, suffix = READER_CASES[case]
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode("utf-8"))
        code, out, err = run(capsys, "fit", str(path))
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {path}{suffix}\n")
        assert_no_child()

    def test_pipe_is_read_by_one_process(self, forks, tmp_path):
        lines = ["t,mx,my,mz"] + csv_rows(200, 4)
        data = ("\n".join(lines) + "\n").encode("ascii")
        assert len(data) < 1 << 16  # the pipe holds it all
        read_fd, write_fd = os.pipe()
        try:
            os.write(write_fd, data)
            os.close(write_fd)
            series = table_io._read_series(f"/dev/fd/{read_fd}")
        finally:
            os.close(read_fd)
        path = self.write(tmp_path, lines)
        assert bits([series.times, series.bloch]) == bits(parse_lines(path))
        assert forks == []
        assert_no_child()

    def test_failed_fork_reads_on_one_process(self, forks, tmp_path, monkeypatch):
        def fork():
            forks.append(None)
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        path = self.write(tmp_path, ["t,mx,my,mz,purity"] + csv_rows(self.ROWS, 5))
        two = read_plain(path)
        assert bits(two) == bits(self.one_process(path, monkeypatch))
        assert len(forks) == 1
        assert_no_child()

    @pytest.mark.parametrize(
        "fault, status, how",
        [("killed", -9, "before"), ("raises", 1, "before"), ("stops short", 0, "before"), ("exits 3", 3, "after")],
    )
    def test_failed_worker_is_an_error(self, forks, tmp_path, capsys, monkeypatch, fault, status, how):
        # The worker reads from the split, the parent from byte 0.
        lines, send, exit_ = table_io._lines, table_io._send, os._exit

        def faulty_lines(fd, start, stop):
            if start > 0 and fault == "killed":
                os.kill(os.getpid(), 9)
            if start > 0 and fault == "raises":
                raise RuntimeError("parsing fault")
            return lines(fd, start, stop)

        monkeypatch.setattr(table_io, "_lines", faulty_lines)
        if fault == "stops short":
            monkeypatch.setattr(table_io, "_send", lambda pipe, *blocks: send(pipe, *blocks[:2]))
        if fault == "exits 3":
            monkeypatch.setattr(os, "_exit", lambda code: exit_(code + 3))
        path = self.write(tmp_path, ["t,mx,my,mz"] + csv_rows(self.ROWS, 4))
        with open(path, "rb") as handle:
            split = split_of(handle.read())
        code, out, err = run(capsys, "fit", path)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            f"error: the CSV parsing worker exited with status {status} {how} sending every row of {path}"
            f" from byte {split}\n"
        )
        assert len(forks) == 1
        assert_no_child()

    def test_fit_emits_no_warning(self, forks, tpp, tmp_path, capsys):
        # Python 3.12 and later warn on a fork in a process with threads, and
        # numpy's OpenBLAS pool makes this one such.
        record = tmp_path / "record.csv"
        assert main(tpp_flags(tpp, samples=self.ROWS, extra=("--out", str(record)))) == EXIT_OK
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "fit", str(record), "--fix-ratio", "11.5")
        assert (code, err) == (EXIT_OK, "")
        assert len(forks) == 1
        assert_no_child()


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

    @pytest.mark.parametrize(
        "flags",
        [
            "--rabi-hz 22245.3 --mu 525.806 --delta-mu-ratio 11.5 --nu 0.0653 --t-max 500e-6 --t-start 1e-21",
            "--rabi-hz 1 --mu 1 --delta-mu-ratio 2 --nu 0.1 --t-max 1 --t-start 1e-18",
            "--rabi-hz 1000 --mu 1000 --delta-mu-ratio 1 --nu 0.999 --t-max 0.01 --t-start 1e-18",
        ],
        ids=["tpp", "slow-decay", "nu-near-one"],
    )
    @pytest.mark.parametrize("model", ["ode-bloch", "ode-density"])
    def test_both_ode_forms_refuse_a_run_that_leaves_the_ball(self, capsys, model, flags):
        # Seeded this deep in the 1/(2t) ramp, RK4 takes |r| past 1 + 1e-9 in
        # either form (by 3.3e-8, 9.4e-9 and 5.8e-9 in the matrix form).
        code, out, err = run(capsys, "compare", "--a", "analytic", "--b", model, *flags.split())
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert err.startswith("numerical failure: integration left the Bloch ball (|r| = 1.0000")
        assert err.count("\n") == 1

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


class TestBoundaryValues:
    """Each refusal at the exact value its message names: the edge itself is accepted or refused as stated."""

    GRID = ("--t-max", "1e-3", "--samples", "16")

    def test_zero_noise_is_accepted(self, capsys):
        code, out, err = run(capsys, "simulate", "--rabi-hz", "1e3", *self.GRID, "--noise", "0", "--seed", "1")
        assert (code, err) == (EXIT_OK, "")
        assert out.count("\n") == 17

    def test_fix_ratio_one_is_accepted(self, tpp, tmp_path, capsys):
        record = tmp_path / "r.csv"
        assert main(tpp_flags(tpp, extra=("--noise", "0.01", "--seed", "3", "--out", str(record)))) == EXIT_OK
        code, out, err = run(capsys, "fit", str(record), "--fix-ratio", "1")
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["fixed_delta_mu_ratio"] == 1.0

    def test_fix_ratio_just_below_one_is_refused(self, tmp_path, capsys):
        # The ratio is checked before the record is read.
        code, out, err = run(capsys, "fit", str(tmp_path / "absent.csv"), "--fix-ratio", "0.9999999999999999")
        assert (code, out, err) == (EXIT_USAGE, "", "error: --fix-ratio must be at least 1\n")

    def test_zero_mu_with_positive_delta_is_refused(self, capsys):
        decay = ("--mu", "0", "--delta", "1e3", "--nu", "0.1")
        code, out, err = run(capsys, "simulate", "--rabi-hz", "1e3", *decay, *self.GRID)
        assert (code, out, err) == (EXIT_USAGE, "", "error: decay rates must be positive\n")

    def test_zero_larmor_frequency_is_a_usage_error(self, capsys):
        # cli's own check answers before nmr.thermal_argument's ValueError, which would exit 2.
        code, out, err = run(capsys, "thermal", "--larmor-hz", "0")
        assert (code, out, err) == (EXIT_USAGE, "", "error: larmor frequency and temperature must be positive\n")

    @pytest.mark.parametrize("model", ["ode-bloch", "ode-density"])
    def test_two_row_table_against_an_ode_model_is_accepted(self, tmp_path, capsys, model):
        # One row is refused; two rows are the fewest an ODE model integrates between.
        path = table(tmp_path / "two.csv", [(1e-3, 0.0, 0.0, 1.0), (2e-3, 0.0, 0.0, 1.0)])
        decay = ("--mu", "1e3", "--delta-mu-ratio", "2", "--nu", "0.1")
        code, out, err = run(capsys, "compare", "--a", path, "--b", model, "--rabi-hz", "1e3", *decay, "--json")
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["overall_time"] in (1e-3, 2e-3)

    def test_one_sample_is_refused(self, capsys):
        code, out, err = run(capsys, "simulate", "--rabi-hz", "1e3", "--t-max", "1e-3", "--samples", "1")
        assert (code, out, err) == (EXIT_USAGE, "", "error: --samples must be at least 2\n")


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
