"""The benchmark's traced mode (`perfbench/tracer.py`) rebinds symrank
functions by name and identity; these tests fail when a traced name
disappears or drops off the call path of the commands that reach it."""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import symrank
from symrank import cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# traced names the commands below reach once the process's empirical
# policies are built (the gap scan and its sieve run only on first use)
REACHED = {
    "bounds.closed_form", "bounds.compare_all", "bounds.constructive_bound",
    "bounds.prior_bound", "cli.main", "curves.check_rr_hypothesis", "curves.family_data",
    "fields.find_irreducible", "fields.invert", "multiplier.build_algorithm",
    "multiplier.emit_tensor", "multiplier.plan_evaluation", "multiplier.verify",
    "ntheory.factorize", "ntheory.is_prime", "primes.select_pair",
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    for short, attr in _load_tracer().TRACED:
        module = importlib.import_module(f"{symrank.__name__}.{short}")
        assert callable(getattr(module, attr, None)), f"{short}.{attr}"


def test_traced_names_stay_on_the_call_path(tmp_path):
    commands = [
        ("compare", "--p", "5", "--n", "100"),
        ("table", "--p-set", "5", "--n-range", "100:100", "--sieve-limit", "100000"),
        ("bound", "--p", "5", "--n", "100", "--method", "all"),
        ("mult", "--q", "4", "--n", "3", "--emit-tensor", str(tmp_path / "tensor.json")),
    ]
    main = cli.main
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(list(argv)) == 0, argv
    finally:
        tracer.uninstall()
    assert cli.main is main
    assert REACHED <= set(_load_tracer().TRACED.values())
    assert sorted(name for name in REACHED if not tracer.stats[name].calls) == []
