"""Generated inputs at the command-line boundary.

Every document ``solve`` and ``check`` are given, valid or not, and every
set of ``bench`` flags, ends in exit status 0, 1 or 2 with no traceback and
no warning. Status 1 comes with exactly one line on stderr, "error: ...";
0 and 2 with none. Warnings are recorded rather than raised: the commands
turn any exception into an error line, so a warning raised as an error
would pass for an ordinary rejected input.

``solve`` also gets a drawn ``--gamma`` and ``--seed`` and ``check`` a
drawn ``--seed``: valid, negative, not finite, or not a number. A valid
``--gamma`` X lies in [1e-12, 1e12], or X/lmax with X in [1e-6, 1e6].

Sizes stay small: a valid spca document has n <= 30 and a bench run n <= 12,
a budget of at most 30 iterations and one or two seeds. An invalid n is
either below 2 or above ``max_spca_n()``, so the memory bound is tested by
the parser's message only and nothing large is built. ``--jobs`` stays at
most 1: each example would otherwise start a process pool.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

from hypothesis import given, settings, strategies as st

import dcprox.cli as cli
from dcprox.problems import max_spca_n, synthetic_catalogue

MOST = max_spca_n()
NAMES = [s.name for s in synthetic_catalogue()]

# values of the wrong type, and numbers that are not finite
junk = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                 st.floats(allow_nan=True, allow_infinity=True),
                 st.lists(st.integers(-2, 2), max_size=2),
                 st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
valid_docs = st.one_of(
    st.fixed_dictionaries({"kind": st.sampled_from(["spca", "spca3"]),
                           "n": st.integers(2, 30)}, optional={
        "seed": st.integers(0, 2**70),
        "kappa": st.one_of(st.none(), st.floats(0.0, 50.0), st.floats(0.0, 1e300),
                           st.integers(0, 100))}),
    st.fixed_dictionaries({"kind": st.just("synthetic"), "name": st.sampled_from(NAMES)}))
# a value for one key of a valid document, mostly one the parser rejects
bad_values = {
    "kind": junk,
    "n": st.one_of(st.integers(-3, 1), st.integers(MOST + 1, MOST + 10**12), junk),
    "seed": st.one_of(st.integers(-3, -1), junk),
    "kappa": st.one_of(st.floats(max_value=-1e-300), st.integers(-2, -1),
                       st.integers(2**1024, 10**400), junk),
    "name": junk,
    "extra": st.integers(),
}


@st.composite
def documents(draw):
    """A valid problem document, or one with one key replaced, as JSON text."""
    doc = draw(valid_docs)
    key = draw(st.sampled_from([None, *bad_values]))
    if key is not None:
        doc[key] = draw(bad_values[key])
    return json.dumps(doc)


any_documents = st.one_of(documents(), junk.map(json.dumps),
                          st.text(max_size=12))  # mostly not JSON at all


def run(argv):
    """(exit status, stdout, stderr, warnings) of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def assert_contract(code, err, caught):
    assert not caught, caught
    assert code in (0, 1, 2), code
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == "", err


# text without digits (of any script), so that it never parses as a number
words = st.text(alphabet=st.characters(blacklist_categories=("Nd",)), max_size=4)
non_finite = st.sampled_from(["nan", "inf", "-inf", "NaN/lmax", "inf/lmax"])
# a --seed value, or None for no flag
seeds = st.one_of(st.none(), st.integers(0, 2**70).map(str), st.integers(-3, -1).map(str),
                  non_finite, words)
# a --gamma value, or None for the solver's default
gammas = st.one_of(
    st.none(),
    st.floats(1e-12, 1e12).map(repr),
    st.floats(1e-6, 1e6).map(lambda x: f"{x!r}/lmax"),
    st.floats(max_value=0.0).map(repr), st.floats(max_value=0.0).map(lambda x: f"{x!r}/lmax"),
    non_finite, words)


def flag(name, value):
    return [] if value is None else [f"{name}={value}"]


@settings(max_examples=80)
@given(any_documents, st.sampled_from(cli.SOLVERS), gammas, seeds)
def test_solve_on_generated_documents(doc, solver, gamma, seed):
    with tempfile.TemporaryDirectory() as tmp:
        code, _, err, caught = run(["solve", doc, "--solver", solver, "--max-iter", "30",
                                    *flag("--gamma", gamma), *flag("--seed", seed),
                                    "--out", os.path.join(tmp, "x")])
    assert_contract(code, err, caught)


@settings(max_examples=40)
@given(any_documents, seeds)
def test_check_on_generated_documents(doc, seed):
    code, out, err, caught = run(["check", doc, *flag("--seed", seed)])
    assert_contract(code, err, caught)  # a FAIL exits 1 with no error line
    assert "FAIL" not in out, out


def _joined(values):
    return values.map(lambda xs: ",".join(map(str, xs)))


VALID_FLAGS = {
    "--solvers": _joined(st.lists(st.sampled_from(cli.SOLVERS), min_size=1, max_size=3,
                                  unique=True)),
    "--n-values": _joined(st.lists(st.integers(2, 12), min_size=1, max_size=2, unique=True)),
    "--seeds": st.integers(1, 2),
    "--tol": st.floats(1e-9, 1e-2),
    "--max-iter": st.integers(1, 30),
    "--jobs": st.just(1),
}
# a value for one flag, mostly one the command rejects
BAD_FLAGS = {
    "--solvers": st.one_of(words, _joined(st.lists(st.sampled_from(cli.SOLVERS),
                                                   min_size=2, max_size=3))),
    "--n-values": st.one_of(words, _joined(st.lists(st.one_of(
        st.integers(2, 12), st.integers(-2, 1), st.integers(MOST + 1, MOST + 10**12)),
        min_size=1, max_size=2))),
    "--seeds": st.one_of(st.integers(-2, 0), words),
    "--tol": st.one_of(st.floats(allow_nan=True, allow_infinity=True), words),
    "--max-iter": st.one_of(st.integers(-2, 0), words),
    "--jobs": st.one_of(st.integers(-2, 0), words),
}


@st.composite
def bench_flags(draw):
    """Every bench flag but --out, valid, or with one value replaced.

    --n-values, --seeds and --max-iter are always given: the default sweep
    runs n up to 280 with a budget of 2000."""
    values = {flag: draw(strategy) for flag, strategy in VALID_FLAGS.items()}
    flag = draw(st.sampled_from([None, *BAD_FLAGS]))
    if flag is not None:
        values[flag] = draw(BAD_FLAGS[flag])
    argv = [f"{name}={value}" for name, value in values.items()]
    return argv + draw(st.sampled_from([[], ["--no-timing"]]))


@settings(max_examples=40)
@given(bench_flags())
def test_bench_on_generated_flags(flags):
    with tempfile.TemporaryDirectory() as tmp:
        code, _, err, caught = run(["bench", *flags,
                                    "--out", os.path.join(tmp, "b")])
    assert_contract(code, err, caught)
