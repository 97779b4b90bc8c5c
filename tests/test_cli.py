import argparse
import contextlib
import hashlib
import io
import json
import random
import re
import resource
import subprocess
import sys
from fractions import Fraction

import pytest

from symrank import cli, primes
from symrank.multiplier import VerificationError


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_capped(*argv):
    """Run the CLI in a fresh process capped at 1 GiB of address space and
    60 s, so an input that would exhaust memory fails there and not on the
    host; it must still answer with an exit code and no traceback."""
    proc = subprocess.run(
        [sys.executable, "-m", "symrank.cli", *argv],
        capture_output=True, text=True, check=False, timeout=60, preexec_fn=_cap_address_space,
    )
    assert proc.returncode in (0, 1, 2), proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc.returncode, proc.stdout


class TestBoundCommand:
    def test_constructive_example(self, capsys):
        code, out = run(
            capsys, "bound", "--p", "5", "--n", "100", "--field", "p2",
            "--method", "constructive", "--policy", "empirical",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value_int"] == 300
        assert doc["witnesses"]["l_k"] == 97 and doc["witnesses"]["l_k1"] == 101
        assert doc["policy"]["name"] == "empirical"

    def test_closed_form(self, capsys):
        code, out = run(capsys, "bound", "--p", "5", "--n", "100", "--method", "closed")
        assert code == 0
        doc = json.loads(out)
        assert doc["value_int"] == 316 and doc["valid_unconditional"] is False

    def test_method_all_bundles_reports(self, capsys):
        code, out = run(capsys, "bound", "--p", "5", "--n", "100", "--field", "p")
        assert code == 0
        doc = json.loads(out)
        methods = [r.get("method") for r in doc["reports"]]
        assert methods == ["closed_prime", "constructive"]

    def test_constructive_large_n(self, capsys):
        # pair selection steps with the primality test, so no table is built
        code, out = run(
            capsys, "bound", "--p", "5", "--n", "1000000000", "--method", "constructive",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["witnesses"]["l_k"] == 999999937
        assert doc["witnesses"]["l_k1"] == 1000000007
        assert doc["witnesses"]["genus"] == 1000000007
        assert doc["value_int"] == 3000000006

    def test_past_primality_limit_is_infeasible(self, capsys):
        # threshold about 1e25, past the proven Miller-Rabin range psi_13
        code, out = run(
            capsys, "bound", "--p", "5", "--n", str(10**25), "--method", "constructive",
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "infeasible" and doc["failed_check"] == "pair_selection"
        assert "3317044064679887385961981" in doc["reason"]

    def test_too_small_n_is_infeasible(self, capsys):
        code, out = run(capsys, "bound", "--p", "5", "--n", "3", "--method", "constructive")
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "infeasible" and "reason" in doc

    def test_alpha_with_dudek_is_usage_error(self, capsys):
        code, out = run(capsys, "bound", "--p", "5", "--n", "100", "--alpha", "1/2")
        assert code == 1
        assert json.loads(out)["error"] == "usage"

    def test_bad_p_is_usage_error(self, capsys):
        code, out = run(capsys, "bound", "--p", "6", "--n", "100")
        assert code == 1

    def test_text_format(self, capsys):
        code, out = run(
            capsys, "bound", "--p", "5", "--n", "100", "--method", "closed",
            "--format", "text",
        )
        assert code == 0
        assert "value_int: 316" in out


# every command whose reply holds a binary64 bound, with n last
FLOAT_REPLY_ARGV = {
    "closed": lambda n: ("bound", "--p", "5", "--method", "closed", "--n", str(n)),
    "all": lambda n: ("bound", "--p", "5", "--method", "all", "--n", str(n)),
    "compare": lambda n: ("compare", "--p", "5", "--n", str(n)),
    "table": lambda n: ("table", "--p-set", "5", "--n-range", f"{n}:{n}"),
    "table-last": lambda n: ("table", "--p-set", "5", "--n-range", f"2:{n}:{n - 2}"),
}


class TestAstronomicalN:
    """Binary64 ends below 2**1024: from n = 2**1000 on, a bound reported as
    a float is refused as usage, where it once ended in an OverflowError."""

    @pytest.mark.parametrize("command", sorted(FLOAT_REPLY_ARGV))
    def test_last_n_below_the_limit_answers(self, capsys, command):
        code, out = run(capsys, *FLOAT_REPLY_ARGV[command](2**1000 - 1))
        assert code == 0
        assert "error" not in json.loads(out)

    @pytest.mark.parametrize("n", [2**1000, 2**1023, 10**400], ids=["2^1000", "2^1023", "10^400"])
    @pytest.mark.parametrize("command", sorted(FLOAT_REPLY_ARGV))
    def test_float_replies_refuse_n_from_the_limit(self, capsys, command, n):
        code, out = run(capsys, *FLOAT_REPLY_ARGV[command](n))
        assert code == 1
        doc = json.loads(out)
        assert doc["error"] == "usage" and "binary64" in doc["reason"]

    def test_table_checks_the_range_it_runs(self, capsys):
        # the step skips every n from the limit on
        code, out = run(capsys, "table", "--p-set", "5", "--n-range", f"2:{2**1000}:{2**1000}")
        assert code == 0
        assert {row["n"] for row in json.loads(out)["rows"]} == {2}

    @pytest.mark.parametrize("n", [2**1000 - 1, 2**1000, 10**400], ids=["2^1000-1", "2^1000", "10^400"])
    def test_constructive_keeps_its_pair_selection_reply(self, capsys, n):
        code, out = run(capsys, "bound", "--p", "5", "--n", str(n), "--method", "constructive")
        assert code == 2
        assert json.loads(out)["failed_check"] == "pair_selection"


class TestGapsCommand:
    def test_example(self, capsys):
        code, out = run(capsys, "gaps", "--limit", "100000", "--alpha", "2/3")
        assert code == 0
        doc = json.loads(out)
        assert doc["violations"] == [7]
        assert "runtime_ms" not in doc  # reproducible by default

    def test_timing_flag_adds_runtime(self, capsys):
        code, out = run(capsys, "gaps", "--limit", "1000", "--timing")
        assert code == 0
        assert "runtime_ms" in json.loads(out)

    def test_bad_alpha(self, capsys):
        code, out = run(capsys, "gaps", "--limit", "1000", "--alpha", "x/y")
        assert code == 1


# exponents whose numerator or denominator once made the gap scan build a
# power of about 10**12 bits or overflow a float, with the violations each
# must report
HUGE_TERM_ALPHAS = [
    ("100", "1/1000000000000", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
                                67, 71, 73, 79, 83, 89, 97]),
    ("100", "999999999999/1000000000000", []),
    ("10", "1e-400", [3, 5, 7]),
]


class TestBoundedResources:
    @pytest.mark.parametrize("limit, alpha, violations", HUGE_TERM_ALPHAS)
    def test_huge_exponent_terms_answer(self, limit, alpha, violations):
        code, out = run_capped("gaps", "--limit", limit, "--alpha", alpha)
        doc = json.loads(out)
        assert code == 0 and doc["violations"] == violations
        assert doc["max_gap_seen"] == (8 if limit == "100" else 4)

    def test_huge_exponent_terms_under_a_policy(self):
        code, out = run_capped(
            "bound", "--p", "5", "--n", "10", "--policy", "empirical", "--alpha", "1/1000000000000"
        )
        assert code == 0
        assert json.loads(out)["reports"][0]["policy"]["alpha"] == "1/1000000000000"

    # 10**-5000: terms past the 4300 digits int() reads from or writes to text
    TINY_ALPHA = "1/1" + "0" * 5000

    def test_alpha_terms_past_the_int_text_limit_in_gaps(self, capsys):
        for alpha in (self.TINY_ALPHA, "1e-5000", " +1_0/1" + "0" * 5001 + " "):
            code, out = run(capsys, "gaps", "--limit", "10", "--alpha", alpha)
            assert code == 0, out
            doc = json.loads(out)
            assert doc["alpha"] == self.TINY_ALPHA and doc["violations"] == [3, 5, 7]
        for fraction in (Fraction(2, 3), Fraction(-7, 9), Fraction(5), Fraction(0)):
            assert primes.fraction_text(fraction) == str(fraction)
        big = "1" + "0" * 5000
        assert primes.fraction_text(Fraction(-(10**5000), 3)) == f"-{big}/3"
        assert primes.fraction_text(Fraction(10**5000)) == big

    def test_alpha_terms_past_the_int_text_limit_in_bound(self, capsys):
        code, out = run(capsys, "bound", "--p", "5", "--n", "100", "--policy", "empirical",
                        "--alpha", "1e-5000", "--sieve-limit", "100")
        assert code == 0, out
        assert json.loads(out)["reports"][0]["policy"]["alpha"] == self.TINY_ALPHA

    # the same alpha as a decimal, past the limit on its digits after the point
    TINY_DECIMAL = "0." + "0" * 4999 + "1"

    def test_decimal_alpha_past_the_int_text_limit_in_gaps(self, capsys):
        code, out = run(capsys, "gaps", "--limit", "10", "--alpha", self.TINY_DECIMAL)
        assert code == 0, out
        assert json.loads(out)["alpha"] == self.TINY_ALPHA

    def test_decimal_alpha_past_the_int_text_limit_in_bound(self, capsys):
        code, out = run(capsys, "bound", "--p", "5", "--n", "100", "--policy", "empirical",
                        "--alpha", self.TINY_DECIMAL, "--sieve-limit", "100")
        assert code == 0, out
        assert json.loads(out)["reports"][0]["policy"]["alpha"] == self.TINY_ALPHA

    def test_alpha_texts_agree_with_fraction(self):
        # seeded texts below the limit: alpha parses exactly the texts
        # Fraction() takes, to the same value; a long exponent is left out,
        # since 10**exponent is what both would compute
        rng = random.Random(4300)
        pieces = ("", " ", "+", "-", "0", "7", "12", "1_0", "_", ".", "e", "E-", "/", " / ", "x")
        parsed = 0
        for _ in range(20000):
            text = "".join(rng.choice(pieces) for _ in range(rng.randrange(1, 7)))
            if re.search(r"[eE][-+]?[\d_]{4}", text):
                continue
            try:
                want = Fraction(text)
            except (ValueError, ZeroDivisionError):
                want = None
            try:
                got = cli._parse_alpha(text)
            except ValueError:
                got = None
            assert got == want, text
            parsed += want is not None
        assert parsed > 1000

    @pytest.mark.parametrize("argv", [
        ("gaps", "--limit", "3"),
        ("bound", "--p", "5", "--n", "2", "--method", "constructive"),
        ("mult", "--q", "2", "--n", "4", "--allow-deg2"),
    ])
    def test_edge_inputs_answer(self, argv):
        run_capped(*argv)


class TestGenusCommand:
    def test_level_mode(self, capsys):
        code, out = run(capsys, "genus", "--N", "143")
        assert code == 0
        assert json.loads(out)["genus"] == 13

    def test_family_mode(self, capsys):
        code, out = run(capsys, "genus", "--family", "11l", "--l", "97", "--p", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["genus"] == 97 and doc["n1_lower_p2"] == 392

    def test_family_p_mismatch(self, capsys):
        code, out = run(capsys, "genus", "--family", "23l", "--l", "97", "--p", "5")
        assert code == 1

    def test_exclusive_flags(self, capsys):
        code, out = run(capsys, "genus", "--N", "143", "--family", "11l", "--l", "5", "--p", "7")
        assert code == 1

    def test_missing_flags(self, capsys):
        code, out = run(capsys, "genus", "--family", "11l")
        assert code == 1

    @pytest.mark.parametrize("flag", ["--p", "--l"])
    def test_zero_option_is_still_given(self, capsys, flag):
        # a zero value counts as given: the level mode refuses it
        code, out = run(capsys, "genus", "--N", "143", flag, "0")
        assert code == 1
        assert json.loads(out)["reason"] == "--N and --family/--l/--p are mutually exclusive"

    def test_zero_level_factor_reaches_the_level_check(self, capsys):
        code, out = run(capsys, "genus", "--family", "11l", "--l", "0", "--p", "5")
        assert code == 1
        assert json.loads(out)["reason"] == "level factor must be prime, got 0"


class TestMultCommand:
    def test_example(self, capsys):
        code, out = run(
            capsys, "mult", "--q", "2", "--n", "3", "--allow-deg2", "--verify", "exhaustive"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rank"] == 6
        assert doc["verification"]["failures"] == 0
        assert doc["verification"]["pairs_checked"] == 64

    @pytest.mark.parametrize("q,route", [(5, "table kernel"), (257, "scalar route")])
    def test_degree_one_answers_rank_one(self, capsys, q, route):
        # GF(q^1): one rational node, rank 2n-1 = 1, all q**2 pairs checked
        code, out = run(capsys, "mult", "--q", str(q), "--n", "1")
        assert code == 0, route
        doc = json.loads(out)
        assert doc["plan"]["rational_nodes"] == [0] and doc["rank"] == 1
        assert doc["envelope"] == {"case": 1, "value": 1}
        assert doc["verification"] == {
            "mode": "exhaustive", "pairs_checked": q * q, "failures": 0, "rank": 1, "envelope": 1
        }

    def test_degree_zero_is_usage_error(self, capsys):
        code, out = run(capsys, "mult", "--q", "5", "--n", "0")
        assert (code, json.loads(out)) == (1, {"error": "usage", "reason": "plan_evaluation requires n >= 1"})

    def test_infeasible(self, capsys):
        code, out = run(capsys, "mult", "--q", "2", "--n", "4", "--allow-deg2")
        assert code == 2
        assert "reason" in json.loads(out)

    def test_emit_tensor(self, capsys, tmp_path):
        path = tmp_path / "tensor.json"
        code, out = run(
            capsys, "mult", "--q", "2", "--n", "2", "--emit-tensor", str(path)
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["rank"] == 3
        assert json.loads(out)["tensor_path"] == str(path)

    def test_random_mode_reports_seed(self, capsys):
        code, out = run(capsys, "mult", "--q", "2", "--n", "2", "--verify", "random:32")
        assert code == 0
        doc = json.loads(out)
        assert doc["verification"]["mode"] == "random"
        assert doc["verification"]["seed"] == cli.DEFAULT_SEED

    def test_extension_base_above_table_cap(self, capsys):
        # GF(289) = GF(17^2) is above the code-table cap, so the modulus
        # search runs on polynomial routines, the base field computes on
        # digits and the verification takes the scalar routes
        code, out = run(capsys, "mult", "--q", "289", "--n", "2", "--verify", "random:50")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "81429081d6e415b9f5e0ea41d855340cee94a18f38e603d20cb003520e70f470"
        )

    @pytest.mark.parametrize(
        "q,n,digest",
        [
            (289, 3, "84c1377ff12d965f37f4ff50f2b5d51b6532c887ced9bc7385181de4c656b484"),
            (512, 2, "f0179f4512947c4bc5b7260e0a69a43c229504bb75f263ac23893e78c4d3a8c8"),
            (2147483647, 2, "0b2536863a3d14add8846e5791834e51df17dcf4975561e7952dae56cccfc37c"),
        ],
    )
    def test_above_table_cap_golden_stdout(self, capsys, q, n, digest):
        # digit arithmetic in GF(17^2) and GF(2^9), and a prime base near
        # 2^31, all verified on the scalar routes; sha256 of stdout as it
        # was before extensions computed on codes
        code, out = run(capsys, "mult", "--q", str(q), "--n", str(n), "--verify", "random:50")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_bad_verify_mode(self, capsys):
        code, out = run(capsys, "mult", "--q", "2", "--n", "2", "--verify", "never")
        assert code == 1

    def test_prime_order_above_range_is_refused_at_once(self, capsys):
        # the first prime above 2^61: refused by the prime field's range
        # check, without trial division up to its square root
        q = 2305843009213693967
        code, out = run(capsys, "mult", "--q", str(q), "--n", "2", "--verify", "random:10")
        assert (code, json.loads(out)) == (
            1, {"error": "usage", "reason": f"prime modulus out of supported range: {q}"}
        )

    def test_large_prime_power_orders_answer_promptly(self):
        # (2^31 - 1)^2 is split by its integer square root, not by trial
        # division up to 2^31, and its modulus search skips the quadratics
        # over GF(2^31 - 1), which all split over GF(q); a probable prime
        # above the primality test's limit is refused by that test
        big = 3317044064679887385962123
        replies = []
        for q in ((2**31 - 1) ** 2, big):
            proc = subprocess.run(
                [sys.executable, "-m", "symrank.cli", "mult", "--q", str(q), "--n", "2",
                 "--verify", "random:10"],
                capture_output=True, check=False, timeout=30,
            )
            replies.append((proc.returncode, json.loads(proc.stdout)))
        (code, doc), refused = replies
        assert code == 0 and doc["modulus"] == [2**31 + 1, 0, 1]
        assert doc["verification"]["failures"] == 0
        assert refused == (1, {"error": "usage", "reason": (
            "primality test limited to n < 3317044064679887385961981")})

    def test_degree_8_over_gf256_answers(self, capsys):
        # its canonical modulus sits just past the q**2 affine rows that the
        # modulus search skips; testing them did not finish in 600 s
        code, out = run(capsys, "mult", "--q", "256", "--n", "8", "--allow-deg2")
        doc = json.loads(out)
        assert code == 0
        assert (doc["rank"], doc["modulus"]) == (15, [14, 1, 0, 1, 0, 0, 0, 0, 1])

    def test_modulus_search_above_the_cap_makes_no_pass_over_the_field(self, capsys, monkeypatch):
        from symrank import fields

        def refuse(*args):
            raise AssertionError("a pass over GF(q) above the code-table cap")

        monkeypatch.setattr(fields, "_rooted_constants", refuse)
        monkeypatch.setattr(fields, "_list_tables", refuse)
        q = (2**31 - 1) ** 2
        code, out = run(capsys, "mult", "--q", str(q), "--n", "2", "--verify", "random:10")
        assert code == 0 and json.loads(out)["modulus"] == [2**31 + 1, 0, 1]

    def test_verification_failure_maps_to_exit_3(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise VerificationError(2, 2, 1, 2, 3, 0)

        monkeypatch.setattr(cli.multiplier, "verify", boom)
        code, out = run(capsys, "mult", "--q", "2", "--n", "2")
        assert code == 3
        assert json.loads(out)["error"] == "verification_failure"
        assert out == json.dumps(VerificationError(2, 2, 1, 2, 3, 0).to_json_dict(), indent=2) + "\n"


class TestCompareCommand:
    def test_example(self, capsys, monkeypatch):
        # the reply renders no gap policy, so compare builds no empirical one
        def no_scan(*args):
            raise AssertionError("compare ran a gap scan")

        monkeypatch.setattr(cli.bounds, "empirical_policy", no_scan)
        code, out = run(capsys, "compare", "--p", "5", "--n", "100")
        assert code == 0
        doc = json.loads(out)
        assert doc["p2"]["smallest"] == "constructive"
        assert doc["p2"]["methods"][0]["value_int"] == 300


class TestTableCommand:
    def test_csv_shape(self, capsys):
        code, out = run(
            capsys, "table", "--p-set", "5,7", "--n-range", "50:60:5", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "p,n,field,method,value_real,value_int,valid,policy,l_k,l_k1,genus,caveats"
        # 2 p-values x 3 n-values x 2 fields x 4 methods
        assert len(lines) == 1 + 2 * 3 * 2 * 4

    @pytest.mark.parametrize("policy", ["dudek", "bhp"])
    def test_constructive_label_builds_no_empirical_policy(self, capsys, monkeypatch, policy):
        # constructive rows print "empirical", but no gap scan runs for it
        argv = ("table", *_GRID, "--policy", policy, "--format", "csv")
        before = run(capsys, *argv)

        def no_scan(*args):
            raise AssertionError("table ran a gap scan")

        monkeypatch.setattr(cli.bounds, "empirical_policy", no_scan)
        after = run(capsys, *argv)
        assert after == before and after[0] == 0
        assert ",constructive," in after[1] and ",empirical," in after[1]

    def test_json_rows(self, capsys):
        code, out = run(capsys, "table", "--p-set", "5", "--n-range", "100:100")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert {r["method"] for r in rows} >= {"constructive", "closed_quadratic", "prior_vi"}

    def test_bad_ranges(self, capsys):
        assert run(capsys, "table", "--p-set", "5", "--n-range", "60:50")[0] == 1
        assert run(capsys, "table", "--p-set", "a,b", "--n-range", "50:60")[0] == 1

    @pytest.mark.parametrize("p_set", ["6", "4", "3", "5,6"])
    def test_bad_p_gives_the_bound_reason(self, capsys, p_set):
        bad = p_set.split(",")[-1]
        code, out = run(capsys, "table", "--p-set", p_set, "--n-range", "5:10")
        assert code == 1
        assert json.loads(out) == {"error": "usage", "reason": f"p must be a prime >= 5, got {bad}"}
        assert run(capsys, "bound", "--p", bad, "--n", "10") == (code, out)

    @pytest.mark.parametrize(
        "argv,reasons",
        [
            (("bound", "--p", "6", "--n", "100"), "p must be a prime >= 5, got 6"),
            (("bound", "--p", "5", "--n", "0", "--method", "closed"), "n must be >= 1"),
            (("bound", "--p", "5", "--n", "1"), "n must be > 1"),
            (("bound", "--p", "5", "--n", "1", "--method", "constructive"), "n must be > 1"),
            (("bound", "--p", "6", "--n", "9", "--sieve-limit", "2"),
             ("gap scan limit must be >= 3", "p must be a prime >= 5, got 6")),
            (("bound", "--p", "6", "--n", "9", "--alpha", "3/2"),
             ("alpha must lie in (0, 1)", "alpha is fixed at 2/3 by the dudek policy")),
            (("bound", "--p", "6", "--n", "9", "--sieve-limit", str(10**10)),
             ("sieve limit 10000000000 exceeds memory cap 1000000000",
              "p must be a prime >= 5, got 6")),
            (("table", "--p-set", "6", "--n-range", "5:10"), "p must be a prime >= 5, got 6"),
            (("table", "--p-set", "5,7", "--n-range", "0:10"), "n must be >= 1"),
            (("table", "--p-set", "5", "--n-range", "1:10"), "n must be > 1"),
            (("table", "--p-set", "6", "--n-range", "1:10", "--sieve-limit", "2"),
             ("gap scan limit must be >= 3", "p must be a prime >= 5, got 6")),
            (("table", "--p-set", "5", "--n-range", "0:10", "--sieve-limit", "2"),
             "gap scan limit must be >= 3"),
        ],
    )
    @pytest.mark.parametrize("policy", ["empirical", "dudek"])
    def test_usage_checks_come_before_the_gap_scan(self, capsys, monkeypatch, argv, reasons, policy):
        # the reasons the commands have always given, in the same order, and
        # no empirical policy is built to give them
        def no_scan(*args):
            raise AssertionError("gap scan before the usage checks")

        monkeypatch.setattr(cli.bounds, "empirical_policy", no_scan)
        if isinstance(reasons, str):
            reasons = (reasons, reasons)
        reason = reasons[policy == "dudek"]
        code, out = run(capsys, *argv, "--policy", policy)
        assert (code, json.loads(out)) == (1, {"error": "usage", "reason": reason})

    def test_infeasible_cells_become_caveat_rows(self, capsys):
        # p=17, n=20: the pair threshold is below 2, so the constructive
        # route is infeasible and the row says so instead of aborting
        code, out = run(capsys, "table", "--p-set", "17", "--n-range", "20:20", "--format", "csv")
        assert code == 0
        rows = out.strip().split("\n")[1:]
        constructive = [r for r in rows if ",constructive," in r]
        assert len(constructive) == 2
        assert all("infeasible: pair_selection" in r for r in constructive)


# sha256 of `symrank selftest` stdout; any change to it is a change to the
# reported results
SELFTEST_STDOUT_SHA256 = "8d3b2266162c4ced1488293850850064911648aa34b38a12f1f7561a44dd6e36"


class TestSelftestCommand:
    def test_timing_goes_to_stderr_only(self, capsys):
        from symrank.selftest import SUITES

        plain = run(capsys, "selftest")
        code = cli.main(["selftest", "--timing"])
        captured = capsys.readouterr()
        assert plain[0] == code == 0
        assert captured.out == plain[1]
        assert hashlib.sha256(plain[1].encode()).hexdigest() == SELFTEST_STDOUT_SHA256
        lines = captured.err.splitlines()
        assert [line.split()[1] for line in lines] == [name for name, _ in SUITES]
        assert len(lines) == 16 and all(line.endswith(" ms") for line in lines)


# argv that reach every path of argparse a per-command build could change:
# each subcommand's help, missing and repeated options, abbreviations,
# --opt=value, parse-time type errors, unknown flags and trailing tokens
# (unrecognized arguments, reported with the top-level usage line), --
# and the argv that build every subcommand
PARSE_CORPUS = [
    (), ("--help",), ("-h",), ("--he",), ("frobnicate",), ("frobnicate", "--q", "3"),
    ("--format", "json", "bound"), ("--", "mult", "--q", "5", "--n", "2"),
    *((name, "--help") for name in cli._COMMANDS),
    ("mult", "-h"), ("mult", "--q", "3", "--n", "2", "--help"),
    ("bound", "--p", "5"), ("mult",), ("table", "--p-set", "5"), ("mult", "--q", "5", "--n"),
    ("bound", "--p", "5", "--n", "9", "--meth", "closed"),
    ("mult", "--q", "5", "--n", "2", "--ver", "random:3"),
    ("table", "--p", "5", "--n-range", "2:9"),
    ("mult", "--q=5", "--n=2"), ("table", "--p-set=5,7", "--n-range=2:9", "--format=csv"),
    ("table", "--p-set", "5,", "--n-range", "2:9"), ("table", "--p-set", "5", "--n-range", "9:2"),
    ("bound", "--p", "x", "--n", "3"), ("bound", "--p", "5", "--n", "9", "--field", "p3"),
    ("genus", "--N", "11", "--N", "12"), ("gaps", "--limit", "100", "--timing", "--format", "csv"),
    ("bound", "--p", "5", "--n", "9", "--frob", "1"), ("bound", "--p", "5", "--n", "9", "-x"),
    ("mult", "--q", "5", "--n", "2", "bound"), ("mult", "--q", "3", "--n", "2", "bound", "--p", "5"),
    ("selftest", "extra"), ("mult", "--", "--q", "5"), ("mult", "--q", "5", "--n", "2", "--"),
    ("mult", "--q", "5", "--n", "2", "--", "x"),
]


class TestUsageAndDeterminism:
    def test_unknown_flag(self, capsys):
        assert run(capsys, "bound", "--p", "5", "--n", "9", "--frob", "1")[0] == 1

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_missing_required(self, capsys):
        assert run(capsys, "bound", "--p", "5")[0] == 1

    def test_csv_only_for_table(self, capsys):
        assert run(capsys, "bound", "--p", "5", "--n", "9", "--format", "csv")[0] == 1

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0

    def test_parser_build_asks_terminal_size_once(self, monkeypatch):
        calls = []
        size = cli.shutil.get_terminal_size
        monkeypatch.setattr(cli.shutil, "get_terminal_size", lambda *a: calls.append(a) or size(*a))
        parser = cli._build_parser()
        assert len(calls) == 1
        parser.format_help()
        assert len(calls) == 1
        # the per-command build too, its subcommand's help included
        parser = cli._build_parser(["mult", "--q", "3"])
        assert len(calls) == 2
        parser.format_help()
        parser._subparsers._group_actions[0].choices["mult"].format_help()
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "argv, built",
        [
            (("mult", "--q", "3", "--n", "2"), ["mult"]),
            (("bound", "--p", "5", "--n", "9", "--method", "closed"), ["bound"]),
            (("mult", "--q", "3", "--n", "2", "bound"), ["mult"]),
            (("--help",), list(cli._COMMANDS)),
            ((), list(cli._COMMANDS)),
            (("frobnicate",), list(cli._COMMANDS)),
            (("--format", "json", "bound"), list(cli._COMMANDS)),
        ],
    )
    def test_main_builds_only_the_named_subcommand(self, capsys, monkeypatch, argv, built):
        names = []
        add_parser = argparse._SubParsersAction.add_parser
        monkeypatch.setattr(
            argparse._SubParsersAction, "add_parser",
            lambda self, name, **kw: names.append(name) or add_parser(self, name, **kw),
        )
        monkeypatch.setattr(sys, "argv", ["symrank", *argv])
        cli.main()  # argv from sys.argv, as the console entry point calls it
        assert names == built

    def test_every_call_builds_a_new_parser(self):
        for argv in ((), ("mult",)):
            assert cli._build_parser(argv) is not cli._build_parser(argv)

    @pytest.mark.parametrize("columns", ["100", "40"])
    def test_per_command_build_parses_as_the_full_build(self, monkeypatch, columns):
        # the full build, which `--help` and unknown commands still get, is
        # the reference
        monkeypatch.setenv("COLUMNS", columns)

        def parse(parser, argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    result = vars(parser.parse_args(argv))
                except SystemExit as exc:
                    result = exc.code
            return result, out.getvalue(), err.getvalue()

        unrecognized = 0
        for argv in PARSE_CORPUS:
            expected = parse(cli._build_parser(), list(argv))
            assert parse(cli._build_parser(argv), list(argv)) == expected, argv
            unrecognized += "unrecognized arguments" in expected[2]
        # each of these errors prints the top-level usage line, which lists
        # every command, from a parser that built only one of them
        assert unrecognized == 7

    @pytest.mark.parametrize(
        "argv",
        [
            ("bound", "--p", "5", "--n", "100", "--method", "all"),
            ("gaps", "--limit", "10000"),
            ("genus", "--N", "253"),
            ("mult", "--q", "3", "--n", "2"),
            ("mult", "--q", "7", "--n", "5", "--allow-deg2", "--verify", "random:200", "--seed", "9"),
            ("compare", "--p", "7", "--n", "60"),
            ("table", "--p-set", "5", "--n-range", "30:40:10", "--format", "csv"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        code1, out1 = run(capsys, *argv)
        code2, out2 = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_in_process_calls_match_fresh_processes(self, capsys, monkeypatch):
        # after a usage error, later calls in the same process still reply
        # exactly as fresh processes do
        sequence = [
            ("bound", "--p", "5"),
            ("bound", "--p", "5", "--n", "100", "--method", "all"),
            ("mult", "--q", "3", "--n", "2"),
            ("table", "--p-set", "5", "--n-range", "30:40:10", "--format", "csv"),
            ("table", "--p-set", "5", "--n-range", "5:1"),
            ("table", "--p-set", "5", "--n-range", "30:40:10", "--format", "json"),
            ("compare", "--p", "11", "--n", "22"),
            ("bound", "--p", "5", "--n", "3", "--method", "constructive"),
            ("--help",),
            ("mult", "--help"),
            ("frobnicate",),
            ("mult", "--q", "3", "--n", "2", "bound"),
        ]
        monkeypatch.setenv("COLUMNS", "80")  # help and usage lines wrap alike in both
        in_process = []
        for argv in sequence:
            code = cli.main(list(argv))
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        fresh = []
        for argv in sequence:
            proc = subprocess.run(
                [sys.executable, "-m", "symrank.cli", *argv], capture_output=True, check=False
            )
            fresh.append((proc.returncode, proc.stdout.decode(), proc.stderr.decode()))
        assert in_process == fresh
        assert [code for code, *_ in fresh] == [1, 0, 0, 0, 1, 0, 0, 2, 0, 0, 1, 1]

    def test_import_loads_no_numpy(self):
        # verification needs no array library, so none is imported at start-up
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, symrank.cli; print('numpy' in sys.modules)"],
            capture_output=True, check=True,
        )
        assert proc.stdout == b"False\n"


# sha256 over "exit code, newline, stdout" of each command of a group, in
# order.  Byte-identical bound-side stdout is part of the contract, so a
# change to any of these replies must show here.
_LIM = ("--sieve-limit", "100000")
_GRID = ("--p-set", "5,7,11,1009", "--n-range", "2:40:7")
BOUND_SIDE_GOLDEN = {
    "table-csv": (
        [("table", *_GRID, "--policy", pol, "--format", "csv", *_LIM) for pol in ("dudek", "bhp", "empirical")],
        "e5e54b8ce39ef76a37e65c5787133c585c01b49b9af3cce0808d0ed3417a5cee",
    ),
    "table-json": (
        [("table", *_GRID, "--policy", pol, "--format", "json", *_LIM) for pol in ("dudek", "bhp", "empirical")],
        "0e2b33fb47a2e1af97c5dadb6e3cadd107626ab6df2bf572c13dd46a420a4e07",
    ),
    "table-text": (
        [("table", *_GRID, "--policy", pol, "--format", "text", *_LIM) for pol in ("dudek", "bhp", "empirical")],
        "bb71b66e143dafca769f088dc0cf3eab89779bdbd298c296d64ba582a86e91ac",
    ),
    "compare": (
        [("compare", "--p", str(p), "--n", str(n)) for p in (5, 11, 1009) for n in (2, 4, 22, 100)],
        "5e8da6bbbbd67ad861dbe1c90c8845246507694b76cdba9411052a18a637982f",
    ),
    # (5, 3), (1009, 2) and n = 10**25 decline the constructive route
    "bound": (
        [
            ("bound", "--p", str(p), "--n", str(n), "--field", f, "--method", m)
            for p, n in ((5, 3), (5, 100), (11, 900), (1009, 2), (5, 10**9), (5, 10**25))
            for f in ("p", "p2")
            for m in ("all", "closed", "constructive")
        ],
        "1fd9287fb92e0d760900968dda765ca3c79282a2dc252d00f9970821a8c5783d",
    ),
    "usage": (
        [("bound", "--p", "6", "--n", "100"), ("compare", "--p", "6", "--n", "100")],
        "a556ae1706aa726f852d907a819d7e435a5cc6ff834f2b6ab5f7b49e086a6511",
    ),
    # the report serializers no other group reaches: genus and family data,
    # a gap scan and an empirical policy's alpha, a seedless verification
    "schema": (
        [
            ("genus", "--N", "253"),
            ("genus", "--N", "1"),
            ("genus", "--family", "11l", "--l", "97", "--p", "5"),
            ("genus", "--family", "23l", "--l", "97", "--p", "11"),
            ("gaps", "--limit", "10000", "--alpha", "3/5"),
            ("bound", "--p", "7", "--n", "500", "--method", "all", "--policy", "empirical",
             "--alpha", "3/5", *_LIM),
            ("mult", "--q", "5", "--n", "3", "--verify", "exhaustive"),
        ],
        "cb7e859e61b8947847e950beee28cd6ae43ecdaa4e8bb8a5225d1d271eec9458",
    ),
}


@pytest.mark.parametrize("group", sorted(BOUND_SIDE_GOLDEN))
def test_bound_side_golden_stdout(group):
    commands, expected = BOUND_SIDE_GOLDEN[group]
    h = hashlib.sha256()
    for argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        h.update(f"{code}\n{buf.getvalue()}".encode())
    assert h.hexdigest() == expected
