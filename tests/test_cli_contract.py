"""The CLI contract on generated argv: every run answers, or exits 1 or 2 with one message.

Argv for ``simulate``, ``compare`` (model sources only) and ``thermal`` is
drawn from a value set that reaches the float edges (signed zero,
subnormals, values whose squares, products with 2*pi or spans overflow).
Each case runs in-process through :func:`nhbloch.cli.main` with warnings
as errors; no case starts a process or writes a file. The contract:

- the exit code is 0, 1 or 2;
- exit 1 prints exactly one ``error:`` line (every generated word is a
  well-formed value, so argparse's usage block is a failure too);
- exit 2 prints exactly one ``numerical failure:`` line;
- nothing else reaches stderr: no traceback, no warning;
- exit 0 prints the CSV table, strict JSON or the five-line compare
  report, with finite numbers in the table.

Property-based testing after MacIver & Hatfield-Dodds, "Hypothesis: a new
approach to property-based testing", JOSS 4(43):1891 (2019).
"""

import contextlib
import io
import json
import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from nhbloch.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main

MAGNITUDES = (0.0, 5e-324, 1e-320, 1e-9, 1e-6, 1e-3, 0.5, 1.0, 1.5, 1e3, 1e6, 1e9, 1e150, 1e300, 1.7e308)
POSITIVE = st.sampled_from(MAGNITUDES[1:])
ANY = st.sampled_from(MAGNITUDES + tuple(-x for x in MAGNITUDES))
# Mostly positive, so that most runs get past the sign checks to the numerics.
MOSTLY_POSITIVE = st.one_of(POSITIVE, POSITIVE, ANY)
MODELS = st.sampled_from(("analytic", "ode-bloch", "ode-density"))
NOTHING = st.just(())


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
SIMULATE = _argv(
    st.tuples(st.just("simulate"), MODELS.map("--model={}".format)),
    FIELD, DECAY, GRID,
    _maybe(_argv(_flag("--noise"), _maybe(_flag("--seed", st.integers(-1, 3))))),
    st.sampled_from(((), ("--format=csv",), ("--format=json",))),
)  # fmt: skip
COMPARE = _argv(
    st.tuples(st.just("compare"), MODELS.map("--a={}".format), MODELS.map("--b={}".format)),
    FIELD, DECAY, GRID,
    _maybe(st.just(("--json",))),
)  # fmt: skip
THERMAL = _argv(st.just(("thermal",)), _flag("--larmor-hz"), _maybe(_flag("--temperature")))


def _option(argv, name):
    """The value of ``--name=value`` in argv, or None."""
    values = [word.split("=", 1)[1] for word in argv if word.startswith(name + "=")]
    return values[-1] if values else None


def _strict_json(text):
    def refuse(constant):
        raise AssertionError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def _check_table(argv, out):
    """A simulate table: one row of five finite floats per sample, as CSV or JSON."""
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


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.one_of(SIMULATE, COMPARE, THERMAL))
def test_every_run_answers_or_refuses_with_one_message(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == EXIT_OK:
        assert err == ""
        if argv[0] == "simulate":
            _check_table(argv, out)
        elif argv[0] == "thermal" or "--json" in argv:
            _strict_json(out)
        else:
            assert out.count("\n") == 5 and "min fidelity" in out
    elif code == EXIT_USAGE:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert err.startswith("numerical failure: ") and err.count("\n") == 1, err
