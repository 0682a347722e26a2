"""The CLI contract on generated argv: every run answers rightly, or exits 1 or 2 with one message.

Argv for ``simulate``, ``compare``, ``fit`` and ``thermal`` is drawn from a
value set that reaches the float edges (signed zero, subnormals, values
whose squares, products with 2*pi or spans overflow). A ``compare`` source
or a ``fit`` input may be a CSV file: the case first writes it with
``simulate`` from the same field, decay and grid words (a short table when
``--samples`` is small). Each case runs in-process through
:func:`nhbloch.cli.main` with warnings as errors; no case starts a process.
The contract:

- the exit code is 0, 1 or 2;
- exit 1 prints exactly one ``error:`` line (every generated word is a
  well-formed value, so argparse's usage block is a failure too);
- exit 2 prints exactly one ``numerical failure:`` line, after the fit's
  JSON when a fit stops at its iteration cap;
- nothing else reaches stderr: no traceback, no warning;
- exit 0 prints the CSV table, strict JSON or the five-line compare
  report, with finite numbers in the table, and the answer is right:

  - a closed-form ``simulate`` table matches the numpy closed form below,
    with the noise that ``--seed`` draws added, to 1e-12 (plus the rounding
    of the rotation angle omega t and of the noise); an ODE table lies in
    the Bloch ball (acceptance criterion 1 bounds its RK4 error);
  - without noise, ``|r|`` equals f(t) <= 1 for the closed form, and the
    purity column equals (1 + |r|^2) / 2;
  - an exit-0 ``fit`` has converged;
  - ``compare`` of a source with itself, or of a noiseless table with the
    model that wrote it, reports 0.

Property-based testing after MacIver & Hatfield-Dodds, "Hypothesis: a new
approach to property-based testing", JOSS 4(43):1891 (2019).
"""

import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nhbloch.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main

MAGNITUDES = (0.0, 5e-324, 1e-320, 1e-9, 1e-6, 1e-3, 0.5, 1.0, 1.5, 1e3, 1e6, 1e9, 1e150, 1e300, 1.7e308)
POSITIVE = st.sampled_from(MAGNITUDES[1:])
ANY = st.sampled_from(MAGNITUDES + tuple(-x for x in MAGNITUDES))
# Mostly positive, so that most runs get past the sign checks to the numerics.
MOSTLY_POSITIVE = st.one_of(POSITIVE, POSITIVE, ANY)
MODELS = st.sampled_from(("analytic", "ode-bloch", "ode-density"))
NOTHING = st.just(())
EPS = 2.0**-53
# Stands for the path of the table a case writes before it runs.
FILE = "FILE"


def _flag(name, value=MOSTLY_POSITIVE):
    # "--flag=value": one word, whatever the value.
    return value.map(lambda v: (f"{name}={v!r}",))


def _maybe(flags):
    return st.one_of(NOTHING, flags)


def _argv(*parts):
    return st.tuples(*parts).map(lambda groups: [word for group in groups for word in group])


FIELD = st.one_of(
    _argv(_flag("--rabi-hz"), _maybe(_flag("--phi", ANY)), _maybe(_flag("--detuning-hz", ANY))),
    # Three separate words, where a negative value such as -1e-09 must still read as a value.
    st.tuples(*[ANY] * 3).map(lambda w: ("--field-hz", *map(repr, w))),
)
DECAY = st.one_of(
    NOTHING,
    _argv(_flag("--mu"), _flag("--nu"), st.one_of(_flag("--delta"), _flag("--delta-mu-ratio"))),
    _argv(*(_maybe(_flag(name)) for name in ("--delta", "--mu", "--nu", "--delta-mu-ratio"))),
)
GRID = _argv(
    _flag("--t-max"),
    _maybe(_flag("--t-start", ANY)),
    _maybe(_flag("--samples", st.integers(0, 11))),
)
NOISE = _maybe(_argv(_flag("--noise"), _maybe(_flag("--seed", st.integers(-1, 3)))))
# The table a file source holds: written by simulate with this model and noise.
SEEDED_NOISE = _maybe(_argv(_flag("--noise", st.sampled_from((1e-6, 0.05, 1.0, 1e300, 1.7e308))), st.just(("--seed=1",))))
TABLE = st.tuples(MODELS, SEEDED_NOISE)
# Each case is (argv, the field, decay and grid words of the table a FILE source holds).
SIMULATE = _argv(
    st.tuples(st.just("simulate"), MODELS.map("--model={}".format)),
    FIELD, DECAY, GRID, NOISE,
    st.sampled_from(((), ("--format=csv",), ("--format=json",))),
).map(lambda argv: (argv, []))  # fmt: skip
SOURCES = st.one_of(MODELS, MODELS, st.just(FILE))
COMPARE = st.tuples(
    st.tuples(st.just("compare"), SOURCES.map("--a={}".format), SOURCES.map("--b={}".format)),
    _argv(FIELD, DECAY, GRID),
    _maybe(st.just(("--json",))),
).map(lambda parts: ([*parts[0], *parts[1], *parts[2]], parts[1]))
# A fit record: flags that simulate mostly takes, so that most fits get to the fit itself.
RATIOS = st.sampled_from((1.0, 1.5, 11.5, 1e3))


def _drive(rabi_hz, periods, t_max):
    """--rabi-hz and a --t-max of that many drive periods (or t_max where it is not finite)."""
    span = periods / rabi_hz if periods else math.inf
    return (f"--rabi-hz={rabi_hz!r}", f"--t-max={span if math.isfinite(span) else t_max!r}")


RECORD = _argv(
    st.tuples(POSITIVE, st.sampled_from((None, 0.5, 3.0, 20.0)), POSITIVE).map(lambda d: _drive(*d)),
    _maybe(
        _argv(
            _flag("--mu", POSITIVE),
            _flag("--nu", st.sampled_from((0.0, 1e-9, 1e-3, 0.5))),
            _flag("--delta-mu-ratio", RATIOS),
        )
    ),
    _flag("--samples", st.integers(6, 40)),
)
FIT = st.tuples(
    _argv(
        st.just(("fit", FILE)),
        _maybe(_flag("--fix-ratio", RATIOS)),
        st.one_of(NOTHING, NOTHING, st.tuples(*[ANY] * 4).map(lambda g: ("--guess", *map(repr, g)))),
    ),
    RECORD,
)
THERMAL = _argv(st.just(("thermal",)), _flag("--larmor-hz"), _maybe(_flag("--temperature"))).map(
    lambda argv: (argv, [])
)


def _option(argv, name):
    """The value of ``--name=value`` in argv, or None."""
    values = [word.split("=", 1)[1] for word in argv if word.startswith(name + "=")]
    return values[-1] if values else None


def _strict_json(text):
    def refuse(constant):
        raise AssertionError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def _field(argv):
    """The field (rad/s) of the flags, in the CLI's convention: phase pi * phi + pi, z = -detuning."""
    if "--field-hz" in argv:
        i = argv.index("--field-hz")
        return 2.0 * np.pi * np.array([float(v) for v in argv[i + 1 : i + 4]])
    w1 = 2.0 * np.pi * float(_option(argv, "--rabi-hz"))
    phase = np.pi * float(_option(argv, "--phi") or 1.5) + np.pi
    detuning = 2.0 * np.pi * float(_option(argv, "--detuning-hz") or 0.0)
    return np.array([w1 * np.cos(phase), w1 * np.sin(phase), -detuning])


def _closed_form(argv, times):
    """Rows f(t) r0(t) from the flags, built as perfbench's ``workloads.closed_form``; and omega t.

    r0 turns (0, 0, 1) about the field axis by omega t; only the zero field
    leaves it at the pole, the library's convention. The norm is hypot's, so
    that a field whose squares underflow still turns the state.
    """
    w = _field(argv)
    omega = math.hypot(*w)
    angle = omega * times
    if omega == 0.0:
        r0 = np.tile([0.0, 0.0, 1.0], (len(times), 1))
    else:
        nx, ny, nz = w / omega
        s, c = np.sin(angle), np.cos(angle)
        r0 = np.column_stack([nx * nz * (1 - c) + ny * s, ny * nz * (1 - c) - nx * s, nz * nz * (1 - c) + c])
    if _option(argv, "--mu") is None:
        return r0, 1.0, angle
    mu, nu = float(_option(argv, "--mu")), float(_option(argv, "--nu"))
    delta = _option(argv, "--delta")
    delta = float(delta) if delta is not None else float(_option(argv, "--delta-mu-ratio")) * mu
    with np.errstate(over="ignore"):
        f = np.exp(-delta * times) - nu * np.expm1(-mu * times)
    return f[:, None] * r0, f, angle


def _check_table(argv, out):
    """A simulate table: one row of five finite floats per sample, as CSV or JSON, with the right answer."""
    samples = int(_option(argv, "--samples") or 251)
    if _option(argv, "--format") == "json":
        payload = _strict_json(out)
        rows = list(zip(*(payload[key] for key in ("t", "mx", "my", "mz", "purity"))))
    else:
        lines = out.split("\n")
        assert lines[0] == "t,mx,my,mz,purity" and lines[-1] == ""
        rows = [[float(v) for v in line.split(",")] for line in lines[1:-1]]
    assert len(rows) == samples and all(len(row) == 5 for row in rows)
    assert all(math.isfinite(v) for row in rows for v in row)
    table = np.array(rows)
    times, m, purity = table[:, 0], table[:, 1:4], table[:, 4]
    model = _option(argv, "--model")
    noise = np.zeros_like(m)
    if _option(argv, "--noise") is not None:
        rng = np.random.default_rng(int(_option(argv, "--seed")))
        noise = rng.normal(0.0, float(_option(argv, "--noise")), m.shape)
    clean = m - noise
    if model == "analytic":
        want, f, angle = _closed_form(argv, times)
        tolerance = 1e-12 + 8.0 * EPS * (np.abs(angle)[:, None] + np.abs(noise))
        assert np.all(np.abs(m - (want + noise)) <= tolerance)
        if _option(argv, "--noise") is None:
            assert np.all(np.abs(np.linalg.norm(m, axis=1) - f) <= 1e-12) and np.all(f <= 1.0)
    else:
        # m = r + noise is rounded at the size of the noise; clean carries that rounding.
        rounding = 8.0 * EPS * np.max(np.abs(noise), axis=1)
        assert np.all(np.linalg.norm(clean, axis=1) <= 1.0 + 1e-9 + rounding)
    if _option(argv, "--noise") is None:
        # Clamped at 1, as core.purity clamps an ODE state on the rim of the ball.
        assert np.all(np.abs(purity - 0.5 * (1.0 + np.minimum(np.sum(m**2, axis=1), 1.0))) <= 1e-12)


def _overall(argv, out):
    """The overall deviation a compare report states."""
    if "--json" in argv:
        return _strict_json(out)["overall"]
    assert out.count("\n") == 5 and "min fidelity" in out
    return float(out.split("\n")[3].split("= ")[1].split(" at")[0])


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "table.csv"


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.one_of(SIMULATE, COMPARE, FIT, THERMAL), TABLE)
# The matrix form seeded deep in the 1/(2t) ramp: |r| overshoots 1 by 3.3e-8.
@example(
    (
        "simulate --model=ode-density --rabi-hz=22245.3 --mu=525.806 --delta-mu-ratio=11.5 --nu=0.0653"
        " --t-max=500e-6 --t-start=1e-21".split(),
        [],
    ),
    ("analytic", ()),
)
def test_every_run_answers_or_refuses_with_one_message(table_path, case, table):
    argv, words = case
    model, noise = table
    if any(FILE in word for word in argv):
        table_path.unlink(missing_ok=True)
        _run(["simulate", f"--model={model}", *words, *noise, f"--out={table_path}"])
        argv = [word.replace(FILE, str(table_path)) for word in argv]
    code, out, err = _run(argv)
    if code == EXIT_OK:
        assert err == ""
        if argv[0] == "simulate":
            _check_table(argv, out)
        elif argv[0] == "compare":
            a, b = _option(argv, "--a"), _option(argv, "--b")
            overall = _overall(argv, out)
            written = model if noise == () else None  # the model a noiseless table holds
            if a == b or {a, b} == {str(table_path), written}:
                assert overall == 0.0, (a, b)
        elif argv[0] == "fit":
            assert _strict_json(out)["converged"] is True
        else:
            _strict_json(out)
    elif code == EXIT_USAGE:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert code == EXIT_NUMERICAL
        if argv[0] == "fit" and out:
            assert _strict_json(out)["converged"] is False
        else:
            assert out == ""
        assert err.startswith("numerical failure: ") and err.count("\n") == 1, err
