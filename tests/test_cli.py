import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import re
import resource
import shutil
import stat
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from symrank import cli, multiplier, primes
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

    def test_timing_goes_to_stderr_only(self, capsys):
        plain = run(capsys, "gaps", "--limit", "1000")
        code = cli.main(["gaps", "--limit", "1000", "--timing"])
        captured = capsys.readouterr()
        assert plain[0] == code == 0
        assert captured.out == plain[1]
        assert re.fullmatch(r"gaps: scan \d+\.\d ms\n", captured.err)

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

    @pytest.mark.parametrize("alpha", ["1e-100000000000", "1e-1000000"])
    def test_alpha_terms_above_the_digit_cap_refused(self, alpha):
        # 10**(10**11) was built before any check and ran out of memory, and
        # a million-digit term took 18 s to echo; both are refused at once
        code, out = run_capped("gaps", "--limit", "10", "--alpha", alpha)
        assert code == 1
        digits = int(alpha[3:]) + 1
        assert json.loads(out)["reason"] == f"alpha term of {digits} digits exceeds digit cap 100000"

    def test_alpha_digit_cap_counts_each_term(self):
        cap = cli.ALPHA_DIGIT_CAP
        assert cli._parse_alpha(f"1e-{cap - 1}") == Fraction(1, 10 ** (cap - 1))
        assert cli._parse_alpha("1/1" + "0" * (cap - 1)) == Fraction(1, 10 ** (cap - 1))
        assert cli._parse_alpha("0" * cap + "1/3") == Fraction(1, 3)  # leading zeros are free
        for text in (f"1e-{cap}", "1/1" + "0" * cap, "1" * (cap + 1) + "/3", "0." + "1" * cap):
            with pytest.raises(ValueError, match=f"exceeds digit cap {cap}$"):
                cli._parse_alpha(text)

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

    def test_forced_exhaustive_above_the_cap_answers(self, capsys):
        # 16**8 = 2**32 pairs, all certified by the tensor identity; the
        # reply is auto's but for its verification block
        argv = ("mult", "--q", "16", "--n", "4", "--allow-deg2")
        (code, out), (auto_code, auto_out) = run(capsys, *argv, "--verify", "exhaustive"), run(capsys, *argv)
        doc, auto = json.loads(out), json.loads(auto_out)
        assert code == auto_code == 0 and auto["verification"]["mode"] == "random"
        assert doc.pop("verification") == {
            "mode": "exhaustive", "pairs_checked": 4294967296, "failures": 0, "rank": 7, "envelope": 7
        }
        del auto["verification"]
        assert doc == auto

    def test_random_count_past_the_pair_count_reports_every_pair(self, capsys):
        code, out = run(capsys, "mult", "--q", "3", "--n", "2", "--verify", "random:100000000000000000000")
        assert code == 0
        assert json.loads(out)["verification"]["pairs_checked"] == 81

    def test_bad_verify_mode(self, capsys):
        code, out = run(capsys, "mult", "--q", "2", "--n", "2", "--verify", "never")
        assert code == 1

    @pytest.mark.parametrize("count", ["²", "①", "3²"])
    def test_verify_count_of_non_decimal_digits_is_a_bad_mode(self, capsys, count):
        # str.isdigit accepts these and int() does not: the reply names the
        # mode, not int()'s error
        code, out = run(capsys, "mult", "--q", "5", "--n", "2", "--verify", f"random:{count}")
        assert code == 1
        assert json.loads(out)["reason"] == (
            f"bad verify mode 'random:{count}': expected exhaustive, random:N or auto"
        )

    def test_verify_count_past_the_int_digit_limit_is_a_bad_mode(self, capsys):
        # int() refuses more than 4300 digits; the reply names the mode, not
        # int()'s error
        mode = "random:" + "1" * 5000
        code, out = run(capsys, "mult", "--q", "5", "--n", "2", "--verify", mode)
        assert code == 1
        assert json.loads(out)["reason"] == (
            f"bad verify mode {mode!r}: expected exhaustive, random:N or auto"
        )

    def test_verify_count_of_other_decimal_digits_answers(self, capsys):
        # int() reads fullwidth digits, so random:３２ is random:32
        reply = run(capsys, "mult", "--q", "5", "--n", "2", "--verify", "random:３２")
        assert reply == run(capsys, "mult", "--q", "5", "--n", "2", "--verify", "random:32")
        assert json.loads(reply[1])["verification"]["pairs_checked"] == 32

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


class TestEmitTensorFile:
    """`mult --emit-tensor PATH` writes over an existing file in place; the
    bytes, the new file's mode and the error replies are those of
    `open(PATH, "w")`."""

    def test_empty_path_is_usage_error(self, capsys):
        code, out = run(capsys, "mult", "--q", "2", "--n", "2", "--emit-tensor", "")
        assert code == 1
        assert out == json.dumps(
            {"error": "usage", "reason": "[Errno 2] No such file or directory: ''"}, indent=2
        ) + "\n"

    def test_shorter_tensor_over_longer_leaves_only_the_shorter(self, capsys, tmp_path):
        path = tmp_path / "tensor.json"
        for q, n in ((5, 8), (5, 2)):
            argv = ("mult", "--q", str(q), "--n", str(n), "--allow-deg2", "--emit-tensor", str(path))
            assert run(capsys, *argv)[0] == 0
        algo = multiplier.build_algorithm(5, 2, multiplier.plan_evaluation(5, 2, True))
        text = path.read_text()
        assert text == multiplier.emit_tensor(algo)
        assert multiplier.verify(multiplier.parse_tensor(text), "exhaustive").failures == 0

    def test_rewrite_never_truncates_to_zero(self, capsys, monkeypatch, tmp_path):
        # the file is opened without O_TRUNC and cut only to the new
        # length, and only when its old content was longer
        path = tmp_path / "tensor.json"
        argv = ("mult", "--q", "2", "--n", "2", "--emit-tensor", str(path))
        opens, truncates = [], []
        real_open, real_ftruncate = os.open, os.ftruncate

        def spy_open(file, flags, *rest, **kwargs):
            if os.fspath(file) == str(path):
                opens.append(flags)
            return real_open(file, flags, *rest, **kwargs)

        def spy_ftruncate(fd, length):
            truncates.append(length)
            return real_ftruncate(fd, length)

        monkeypatch.setattr(os, "open", spy_open)
        monkeypatch.setattr(os, "ftruncate", spy_ftruncate)
        for old in ("x" * 100_000, "x"):
            with open(path, "w") as fh:
                fh.write(old)
            assert run(capsys, *argv)[0] == 0
        tensor = path.read_bytes()
        assert len(opens) == 2 and not any(flags & os.O_TRUNC for flags in opens)
        assert truncates == [len(tensor)]
        assert tensor.decode() == multiplier.emit_tensor(
            multiplier.build_algorithm(2, 2, multiplier.plan_evaluation(2, 2, False))
        )

    def test_dev_null_answers(self, capsys):
        code, out = run(capsys, "mult", "--q", "3", "--n", "2", "--emit-tensor", os.devnull)
        assert code == 0
        assert json.loads(out)["tensor_path"] == os.devnull

    @pytest.mark.parametrize(
        "where,reason",
        [(".", "[Errno 21] Is a directory: "), ("missing/tensor.json", "[Errno 2] No such file or directory: ")],
        ids=["directory", "missing-directory"],
    )
    def test_unopenable_path_replies_as_open_does(self, capsys, tmp_path, where, reason):
        target = tmp_path / where
        code, out = run(capsys, "mult", "--q", "2", "--n", "2", "--emit-tensor", str(target))
        with pytest.raises(OSError) as exc:
            open(target, "w")
        assert code == 1 and reason in out
        assert out == json.dumps({"error": "usage", "reason": str(exc.value)}, indent=2) + "\n"
        assert not (tmp_path / "missing").exists()

    def test_new_file_mode_follows_the_umask(self, capsys, tmp_path):
        emitted, opened = tmp_path / "emitted.json", tmp_path / "opened.json"
        old = os.umask(0o027)
        try:
            assert run(capsys, "mult", "--q", "2", "--n", "2", "--emit-tensor", str(emitted))[0] == 0
            open(opened, "w").close()
        finally:
            os.umask(old)
        assert stat.S_IMODE(emitted.stat().st_mode) == stat.S_IMODE(opened.stat().st_mode) == 0o640


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

    def test_every_suite_reports_when_verification_fails(self, capsys, monkeypatch):
        # a wrong algorithm raises VerificationError out of verify: the two
        # suites that verify FAIL with it, and every other suite still runs
        from symrank import multiplier

        monkeypatch.setattr(multiplier, "_first_basis_failure", lambda algo: (0, 0))
        code, out = run(capsys, "selftest")
        lines = out.splitlines()
        assert code == 3 and len(lines) == 17
        failed = [line.split()[1] for line in lines if " ... FAIL (VerificationError: " in line]
        assert failed == ["multiplication", "tensor_roundtrip"]
        assert sum(" ... ok (" in line for line in lines) == 14
        assert lines[-1] == "selftest: 14/16 suites passed"


# argv that reach every path of argparse the well-formed parser must either
# decline or match: each subcommand's help, missing and repeated options,
# abbreviations, --opt=value, parse-time type errors, unknown flags and
# trailing tokens (unrecognized arguments, reported with the top-level usage
# line), -- and a leading option
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

# value texts for each option type: ones the type and choices take, then
# ones they refuse or that argparse reads apart from exact flags (a leading
# "-"), non-ASCII digits and empty strings among them
_GOOD_VALUES = {
    int: ["5", "11", "30", "2", " 7", "1_000", "５", "0"],
    cli._parse_p_set: ["5", "5,7", "11,13,101", "５,7"],
    cli._parse_n_range: ["2:9", "30:40:10", "5:5"],
    None: ["2/3", "random:3", "auto", "x.json"],
}
_ODD_VALUES = {
    int: ["²", "x", "", "-5", "5.0", "-"],
    cli._parse_p_set: ["5,", "", "x", "-5", "5;7"],
    cli._parse_n_range: ["9:2", "2:9:0", "2", "", "a:b", "-2:9"],
    None: ["", "-1", "--q", "-"],
}
_STRAY_TOKENS = ["-h", "--help", "--", "-5", "", "５", "²", "stray", "bound", "--frob", "--q", "-x"]


def _generated_argv(rng: random.Random) -> list[str]:
    """A seeded argv from `_COMMANDS`: mostly a call of the right shape,
    with exact flags replaced by abbreviations or =-forms, repeated or left
    out, odd values, bad choices and stray tokens mixed in."""
    if rng.random() < 0.04:
        name = rng.choice(["", "-h", "--help", "--", "frobnicate", "mul", "-5"])
        arguments = rng.choice(list(cli._COMMANDS.values()))[2]
    else:
        name = rng.choice(list(cli._COMMANDS))
        arguments = cli._COMMANDS[name][2]
    groups = []
    for flag, spec in arguments:
        if rng.random() < (0.95 if spec.get("required") else 0.4):
            for _ in range(2 if rng.random() < 0.05 else 1):
                groups.append((flag, spec))
    rng.shuffle(groups)
    argv = [name]
    for flag, spec in groups:
        form = rng.random()
        if form < 0.04:
            flag = flag[: rng.randint(3, len(flag) - 1)] if len(flag) > 3 else flag
        elif form < 0.05:
            flag = flag.upper()
        if spec.get("action") == "store_true":
            argv.append(flag)
            continue
        if "choices" in spec:
            value = rng.choice(spec["choices"]) if rng.random() < 0.9 else rng.choice(["bogus", "", "-p"])
        else:
            pool = _GOOD_VALUES if rng.random() < 0.85 else _ODD_VALUES
            value = rng.choice(pool[spec.get("type")])
        if 0.05 <= form < 0.08:
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    for _ in range(rng.choice([0] * 8 + [1, 2])):
        argv.insert(rng.randint(1, len(argv)), rng.choice(_STRAY_TOKENS))
    return argv


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
        size = shutil.get_terminal_size
        monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: calls.append(a) or size(*a))
        parser = cli._build_parser()
        assert len(calls) == 1
        parser.format_help()
        parser._subparsers._group_actions[0].choices["mult"].format_help()
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "argv, built",
        [
            (("mult", "--q", "3", "--n", "2"), []),
            (("bound", "--p", "5", "--n", "9", "--method", "closed"), []),
            (("mult", "--q", "3", "--n", "2", "bound"), list(cli._COMMANDS)),
            (("--help",), list(cli._COMMANDS)),
            ((), list(cli._COMMANDS)),
            (("frobnicate",), list(cli._COMMANDS)),
            (("--format", "json", "bound"), list(cli._COMMANDS)),
        ],
    )
    def test_main_builds_only_the_named_subcommand(self, capsys, monkeypatch, argv, built):
        # a well-formed argv builds no argparse parser at all; every other
        # argv builds all seven subcommands
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
        assert cli._build_parser() is not cli._build_parser()

    @pytest.mark.parametrize("columns", ["100", "40"])
    def test_well_formed_parse_matches_the_full_build(self, monkeypatch, columns):
        # the full argparse build, which every declined argv gets, is the
        # reference: an argv the well-formed parser reads must give the same
        # namespace there, with nothing printed
        monkeypatch.setenv("COLUMNS", columns)
        parser = cli._build_parser()
        rng = random.Random(30)
        corpus = [list(argv) for argv in PARSE_CORPUS] + [_generated_argv(rng) for _ in range(20_000)]
        read = 0
        for argv in corpus:
            parsed = cli._parse_well_formed(argv)
            if parsed is None:
                continue
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    expected = vars(parser.parse_args(argv))
                except SystemExit as exc:
                    expected = exc.code
            assert (vars(parsed), out.getvalue(), err.getvalue()) == (expected, "", ""), argv
            # argparse's other spellings (abbreviations, --opt=value, -h, --,
            # values that start with "-") are its own to read
            flags = dict(cli._COMMANDS[argv[0]][2])
            assert all(token in flags for token in argv[1:] if token.startswith("-")), argv
            read += 1
        # both paths are well exercised
        assert 0.3 * len(corpus) < read < 0.7 * len(corpus)

    def test_benchmark_requests_are_well_formed(self, monkeypatch, tmp_path):
        # every request of the benchmark's workloads takes the path without
        # argparse, so the benchmark measures it
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from workloads import WORKLOADS

        assert len(WORKLOADS) == 4
        for workload in WORKLOADS.values():
            for request in workload.requests(1, tmp_path):
                assert cli._parse_well_formed(list(request.argv)) is not None, request.argv

    def test_well_formed_parser_reads_every_option_keyword(self):
        # the keywords `_parse_well_formed` reads, and the two that change
        # only help output; a new keyword (nargs, append, ...) must be
        # taught to it first
        handled = {"type", "choices", "default", "required", "dest", "action", "help", "metavar"}
        for _, _, arguments in cli._COMMANDS.values():
            for flag, spec in arguments:
                assert flag.startswith("--") and set(spec) <= handled, flag
                assert spec.get("action", "store_true") == "store_true", flag
                # argparse passes a string default through the type; this
                # parser does not
                assert not (isinstance(spec.get("default"), str) and "type" in spec), flag

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

    def test_benchmark_requests_rerun_byte_identical(self, capsys, monkeypatch, tmp_path):
        # every request of the benchmark's workloads, run twice in one
        # process, gives the same stdout and writes the same tensor
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from workloads import WORKLOADS

        for workload in WORKLOADS.values():
            for request in workload.requests(1, tmp_path):
                argv = list(request.argv)
                tensor = Path(argv[argv.index("--emit-tensor") + 1]) if "--emit-tensor" in argv else None
                replies = []
                for _ in range(2):
                    code, out = run(capsys, *argv)
                    replies.append((code, out, tensor.read_bytes() if tensor else None))
                    if tensor:
                        tensor.unlink()
                assert replies[0] == replies[1] and replies[0][0] == 0, argv

    def test_benchmark_requests_rewrite_byte_identical(self, capsys, monkeypatch, tmp_path):
        # every mult request of the benchmark's workloads, run twice to the
        # same path with no unlink in between, writes the same bytes
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from workloads import WORKLOADS

        rewritten = 0
        for workload in WORKLOADS.values():
            for request in workload.requests(1, tmp_path):
                argv = list(request.argv)
                if "--emit-tensor" not in argv:
                    continue
                tensor = Path(argv[argv.index("--emit-tensor") + 1])
                replies = []
                for _ in range(2):
                    code, out = run(capsys, *argv)
                    replies.append((code, out, tensor.read_bytes()))
                assert replies[0] == replies[1] and replies[0][0] == 0, argv
                rewritten += 1
        assert rewritten

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

    @pytest.mark.parametrize(
        "module",
        ["numpy", "dataclasses", "inspect", "typing", "symrank.selftest", "argparse", "shutil", "random"],
    )
    def test_import_does_not_load(self, module):
        # every CLI call pays for what importing symrank.cli loads: verification
        # needs no array library, the value types are not dataclasses (which
        # import inspect), annotations need no typing, only the selftest
        # command imports its suites, only an argv argparse reads imports it
        # (and shutil, for its width), and no verification draws a random
        # stream.  -S keeps site from preloading modules
        script = (
            "import sys; before = set(sys.modules); import symrank.cli; "
            f"print({module!r} in sys.modules.keys() - before)"
        )
        proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, check=True)
        assert proc.stdout == b"False\n"

    @pytest.mark.parametrize(
        "module", ["fields", "multiplier", "bounds", "curves", "primes", "ntheory", "jsonout", "record"]
    )
    def test_library_reads_no_clock(self, module):
        # only cli and selftest, which own the --timing flags, read a clock:
        # a library module binds neither the time module nor a name from it
        namespace = vars(importlib.import_module(f"symrank.{module}")).values()
        assert not [v for v in namespace if v is time or getattr(v, "__module__", None) == "time"]

    def test_failing_random_verification_imports_no_random(self):
        # random mode reports a wrong algorithm at its first failing basis
        # pair, as every mode does, and draws no operand stream
        script = "\n".join([
            "import sys",
            "from symrank.fields import Matrix",
            "from symrank.multiplier import BilinearAlgorithm, VerificationError, build_algorithm, verify",
            "algo = build_algorithm(5, 3)",
            "recon = algo.recon.to_int_lists()",
            "recon[0][0] = (recon[0][0] + 1) % 5",
            "bad = BilinearAlgorithm(algo.ext, algo.plan, algo.rank, algo.forms, Matrix(algo.base, recon))",
            "try:",
            "    verify(bad, 'random', trials=10)",
            "except VerificationError:",
            "    print('random' in sys.modules)",
        ])
        proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, check=True)
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


# sha256 over "exit code, newline, stdout, newline, emitted tensor" of
# `mult --allow-deg2 --verify auto --seed 7 --emit-tensor PATH` at each cell,
# in order, with PATH replaced by TENSOR in stdout.  The cells are the 19 of
# the mult benchmark workloads, then a table-free extension (289, 3), a large
# n over a prime base (251, 20), a binary base at the table cap (256, 8) and
# an infeasible cell (2, 4), which exits 2 and writes no tensor.
MULT_SIDE_GOLDEN = (
    (
        (16, 4), (64, 3), (25, 4), (9, 6), (4, 8), (27, 3), (49, 3), (7, 6), (5, 8),
        (11, 3), (31, 2), (5, 4), (9, 3), (8, 3), (25, 2), (4, 4), (3, 5), (7, 3), (16, 2),
        (289, 3), (251, 20), (256, 8), (2, 4),
    ),
    "56bed69dd579b3a99f9e8a355e263011b00e48679b92672281cb9caedc7b43d1",
)


def test_mult_side_golden_stdout_and_tensors(tmp_path):
    cells, expected = MULT_SIDE_GOLDEN
    h = hashlib.sha256()
    for q, n in cells:
        path = tmp_path / f"tensor-{q}-{n}.json"
        argv = ["mult", "--q", str(q), "--n", str(n), "--allow-deg2", "--verify", "auto",
                "--seed", "7", "--emit-tensor", str(path)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        tensor = path.read_text() if path.exists() else ""
        h.update(f"{code}\n{buf.getvalue().replace(str(path), 'TENSOR')}\n{tensor}".encode())
    assert h.hexdigest() == expected
