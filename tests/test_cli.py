import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import brauersplit
import brauersplit.cli
from brauersplit.cli import ReportRecord, main
from brauersplit.cyclotomic import poly_divmod, poly_mod
from poly_reference import schoolbook_pow_mod


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_hilbert_basic(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "-3", "7", "7")
    assert code == 0
    (rec,) = records(out)
    assert rec["command"] == "hilbert"
    assert rec["inputs"] == {"alpha": -3, "beta": 7, "place": "7"}
    assert rec["outputs"]["value"] == 1


def test_hilbert_infinite_place(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "1", "1", "inf")
    assert code == 0
    assert records(out)[0]["outputs"]["value"] == 1


def test_hilbert_oracle_agreement(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "-1", "3", "2", "--oracle")
    assert code == 0
    rec = records(out)[0]
    assert rec["outputs"] == {"agree": True, "k_star": 5, "oracle": False, "value": -1}


def test_hilbert_oracle_disagreement_exits_1(monkeypatch, capsys):
    # the record is still printed; only the exit code reports the failed check
    oracle = brauersplit.cli.qp_solvable_oracle
    monkeypatch.setattr(brauersplit.cli, "qp_solvable_oracle", lambda *args: not oracle(*args))
    code, out, err = run_cli(capsys, "hilbert", "-1", "3", "2", "--oracle")
    assert (code, err) == (1, "")
    assert records(out)[0]["outputs"] == {"agree": False, "k_star": 5, "oracle": True, "value": -1}


def test_hilbert_at_one_place_does_not_factor():
    # (10^19 + 51)(10^19 + 87): a symbol that factored its arguments would
    # hand this to Pollard rho
    n = (10**19 + 51) * (10**19 + 87)
    src = str(Path(brauersplit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "brauersplit.cli", "hilbert", str(n), "3", "5"],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert proc.returncode == 0
    assert records(proc.stdout)[0]["outputs"]["value"] == 1


def test_hilbert_rejects_bad_place(capsys):
    # "0" must not reach Place(0), which is the infinite place
    for place in ("9", "0", "1", "-7", "x"):
        code, out, err = run_cli(capsys, "hilbert", "3", "5", place)
        assert code == 2, place
        assert out == "" and err.startswith("error:"), place
    for place, value in (("inf", 1), ("2", 1), ("7", -1)):
        code, out, _ = run_cli(capsys, "hilbert", "3", "-7", place)
        assert code == 0
        assert records(out) == [{
            "command": "hilbert",
            "inputs": {"alpha": 3, "beta": -7, "place": place},
            "outputs": {"value": value},
            "witness": None,
        }]


def test_quat_split_with_witness(capsys):
    code, out, _ = run_cli(capsys, "quat-split", "-3", "3", "--witness", "10")
    assert code == 0
    rec = records(out)[0]
    assert rec["outputs"]["split"] is True
    assert rec["witness"] == {"x": 1, "y": 1, "z": 0}


def test_quat_split_division_algebra(capsys):
    code, out, _ = run_cli(capsys, "quat-split", "-1", "3")
    assert code == 0
    rec = records(out)[0]
    assert rec["outputs"]["split"] is False
    assert rec["outputs"]["symbols"]["inf"] == 1
    assert set(rec["outputs"]["symbols"]) == {"inf", "2", "3"}


def test_quat_split_witness_inconclusive(capsys):
    # (-13, 61) splits but its smallest point is out of reach at H=2
    code, out, _ = run_cli(capsys, "quat-split", "-13", "61", "--witness", "2")
    assert code == 0
    rec = records(out)[0]
    assert rec["outputs"]["split"] is True
    assert rec["witness"] is None
    assert "inconclusive" in rec["outputs"]["witness_note"]


@pytest.mark.parametrize("alpha", ["-1", "1"])
def test_quat_split_rejects_a_height_bound_below_one(alpha, capsys):
    # (-1, -1) is a division algebra and (1, 1) splits: H is checked before
    # the verdict, not only when a point is searched for
    code, out, err = run_cli(capsys, "quat-split", alpha, alpha, "--witness", "0")
    assert code == 2
    assert out == ""
    assert err == "error: height bound must be positive\n"


def test_quat_split_rejects_zero(capsys):
    code, _, err = run_cli(capsys, "quat-split", "0", "3")
    assert code == 2


def test_represent(capsys):
    code, out, _ = run_cli(capsys, "represent", "3", "7")
    assert code == 0
    rec = records(out)[0]
    assert rec["outputs"]["exists"] is True
    assert rec["witness"] == {"x": 2, "y": 1}

    code, out, _ = run_cli(capsys, "represent", "3", "5")
    rec = records(out)[0]
    assert rec["outputs"]["exists"] is False
    assert rec["witness"] is None


def run_cli_subprocess(*argv):
    src = str(Path(brauersplit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "brauersplit.cli", *argv],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return records(proc.stdout)[0]


def test_represent_near_10_18_is_bounded():
    rec = run_cli_subprocess("represent", "1", str(10**18 + 9))
    assert rec["outputs"] == {"exists": True}
    assert rec["witness"] == {"x": 10**9, "y": 3}
    rec = run_cli_subprocess("represent", "1", str(10**18 + 3))
    assert rec["outputs"] == {"exists": False}


def test_quat_split_at_the_twelve_base_pseudoprime():
    # psi_12 passes Miller-Rabin to the bases 2..37; the symbol of (43, psi_12)
    # is -1 at both of its prime factors, so the algebra is a division algebra
    rec = run_cli_subprocess("quat-split", "43", "318665857834031151167461")
    assert rec["outputs"]["split"] is False
    assert rec["outputs"]["symbols"]["399165290221"] == -1
    assert rec["outputs"]["symbols"]["798330580441"] == -1


def test_quat_split_factors_each_argument_not_the_product(capsys):
    # both are primes; their product is psi_13, which no base refutes, so
    # factoring a*b would end inconclusive
    assert 1287836182261 * 2575672364521 == 3317044064679887385961981
    code, out, _ = run_cli(capsys, "quat-split", "1287836182261", "2575672364521")
    assert code == 0
    assert records(out)[0]["outputs"] == {
        "split": True,
        "symbols": {"1287836182261": 1, "2": 1, "2575672364521": 1, "inf": 1},
    }


def test_quat_split_of_two_large_primes_is_bounded():
    # rho on the product of two primes near 10^18 runs about 10^9 steps
    rec = run_cli_subprocess("quat-split", "1000000000000000003", "1000000000000000009")
    assert rec["outputs"]["split"] is True
    assert set(rec["outputs"]["symbols"]) == {
        "inf", "2", "1000000000000000003", "1000000000000000009"}


def test_quat_split_refuses_the_thirteen_base_pseudoprime(capsys):
    # psi_13 passes all thirteen bases; (61, psi_13) is a division algebra,
    # which the CLI once reported as split
    code, out, err = run_cli(capsys, "quat-split", "61", "3317044064679887385961981")
    assert code == 3
    assert out == ""
    assert err.startswith("inconclusive:")


def test_log_environment_variable_is_ignored():
    # an unknown BRAUER_SPLIT_LOG level once ended in a traceback with exit 1
    src = str(Path(brauersplit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "BRAUER_SPLIT_LOG": "bogus"}
    proc = subprocess.run(
        [sys.executable, "-m", "brauersplit.cli", "cyclo", "2", "3"],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert records(proc.stdout)[0]["outputs"] == {"e": 1, "f": 2, "g": 1}


def test_character_commands_reject_a_pseudoprime_p_and_an_unsupported_q():
    # psi_12 once reached Cantor-Zassenhaus modulo a composite; as a place
    # it must be a usage error, and promptly.  So must q = 2, and a q past
    # the CLI's bound q < 100 on the size of Phi_q (101, the first prime
    # past it, and one far past it), which `norm` shares with the others.
    src = str(Path(brauersplit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    psi12 = "318665857834031151167461"
    argvs = []
    for p, q in ((psi12, "3"), ("7", "101"), ("7", "1000003"), ("7", "2")):
        argvs += [["power-char", "2", p, q], ["kummer", "2", p, q], ["norm", "2", p, q, "1"]]
    for argv in argvs:
        proc = subprocess.run(
            [sys.executable, "-m", "brauersplit.cli", *argv],
            capture_output=True, text=True, timeout=10, env=env,
        )
        assert proc.returncode == 2, (argv, proc.stdout, proc.stderr)
        assert proc.stderr.startswith("error:"), (argv, proc.stderr)


def test_cyclo_order_modulo_a_large_prime_is_bounded():
    # the order of 3 mod 10^18 + 3 was once found by walking its powers
    rec = run_cli_subprocess("cyclo", "3", str(10**18 + 3))
    assert rec["outputs"] == {"e": 1, "f": 333333333333333334, "g": 3}


def test_verify_single_n(capsys):
    code, out, _ = run_cli(capsys, "verify", "3", "--bound", "500")
    assert code == 0
    rec = records(out)[0]
    assert rec["outputs"]["mandated_ok"] is True
    assert rec["outputs"]["disagreements"] == []


def test_verify_vacuous_bound(capsys):
    code, out, _ = run_cli(capsys, "verify", "5", "--bound", "3")
    assert code == 0
    assert records(out)[0]["outputs"]["primes_checked"] == 1


def test_verify_all_surfaces_the_n14_defect(capsys):
    # the residue classes printed for n=14 describe a two-form genus, so the
    # representation<->congruence check genuinely fails there; exit 1 is the
    # contract for a failed mandated implication
    code, out, _ = run_cli(capsys, "verify", "all", "--bound", "100")
    assert code == 1
    recs = records(out)
    assert len(recs) == 11
    by_n = {r["inputs"]["n"]: r["outputs"] for r in recs}
    assert by_n[14]["mandated_ok"] is False
    assert all(by_n[n]["mandated_ok"] for n in by_n if n != 14)


def test_verify_has_no_out_option(tmp_path, monkeypatch, capsys):
    # stdout is the one record stream; `> FILE` keeps it
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "verify", "3", "--bound", "50", "--out", "x.jsonl")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --out x.jsonl" in err
    assert not (tmp_path / "x.jsonl").exists()


def test_verify_rejects_bad_n(capsys):
    for argv in (("4", "--bound", "100"), ("3", "--bound", "2")):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == "" and err.startswith("error:"), argv


def test_cyclo(capsys):
    code, out, _ = run_cli(capsys, "cyclo", "2", "3")
    assert code == 0
    assert records(out)[0]["outputs"] == {"e": 1, "f": 2, "g": 1}


def test_cyclo_ramified_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "cyclo", "3", "3")
    assert code == 2


def test_power_char(capsys):
    code, out, _ = run_cli(capsys, "power-char", "2", "7", "3")
    assert code == 0
    rec = records(out)[0]
    assert rec["outputs"]["value"] == 1
    assert rec["outputs"]["ideal_factor"] == [3, 1]

    code, out, _ = run_cli(capsys, "power-char", "7", "7", "3")
    assert records(out)[0]["outputs"]["value"] == "zero"


POWER_CHAR_AT_Q_23 = (
    '{"command":"power-char","inputs":{"alpha":2,"p":1000000000000000003,"q":23},'
    '"outputs":{"ideal_factor":[1000000000000000002,415331165012195691,415331165012195694,4,'
    '584668834987804315,169337669975608622,169337669975608618,584668834987804308,'
    '999999999999999999,415331165012195689,415331165012195692,1],"value":0},"witness":null}'
)


def test_power_char_at_q_23_against_schoolbook_powers(capsys):
    # the record CI pins: its factor is a monic irreducible factor of Phi_23
    # of degree f = ord(p mod 23) = 11, and its value is the k with
    # 2^((p^11 - 1)/23) = x^k mod g, all by schoolbook powers
    p, q, f = 10**18 + 3, 23, 11
    code, out, _ = run_cli(capsys, "power-char", "2", str(p), str(q))
    assert (code, out) == (0, POWER_CHAR_AT_Q_23 + "\n")
    g = json.loads(out)["outputs"]["ideal_factor"]
    assert len(g) == f + 1 and g[-1] == 1
    assert not poly_divmod([1] * q, g, p)[1]
    x, frobs = [0, 1], []
    for _ in range(f):
        x = schoolbook_pow_mod(x, p, g, p)
        frobs.append(x)
    assert [d + 1 for d, v in enumerate(frobs) if v == [0, 1]] == [f]  # irreducible
    power = schoolbook_pow_mod([2], (p**f - 1) // q, g, p)
    assert power == poly_mod([0] * json.loads(out)["outputs"]["value"] + [1], g, p)


def test_character_commands_take_every_odd_q_below_the_bound(capsys):
    for q in (23, 53, 97):
        for argv in (["power-char"], ["kummer"], ["norm", "1"]):
            code, out, err = run_cli(capsys, argv[0], "2", str(10**18 + 3), str(q), *argv[1:])
            assert (code, err) == (0, ""), (argv, q)
    # the slowest pair found for the bound: q = 97, f = 2, p just below psi_13
    rec = run_cli_subprocess("power-char", "2", "3317044064679886386006299", "97")
    assert len(rec["outputs"]["ideal_factor"]) == 3
    rec = run_cli_subprocess("norm", "2", "3317044064679886386006299", "97", "1")
    assert rec["outputs"]["f_prime"] == 2


# pinned by CI: p = 1 mod 23, so f_prime = 1, and 2 is no 23rd power mod p
NORM_AT_Q_23 = (
    '{"command":"norm","inputs":{"alpha":2,"l":1,"p":1000000000000004477,"q":23},"outputs":'
    '{"case":"split_base_char_nontrivial","f_prime":1,"f_rel":23,"is_norm":true,"m":23},"witness":null}'
)


def test_norm_at_q_23_agrees_with_kummer_and_power_char(capsys):
    p = 1000000000000004477
    assert run_cli(capsys, "norm", "2", str(p), "23", "1") == (0, NORM_AT_Q_23 + "\n", "")
    _, out, _ = run_cli(capsys, "kummer", "2", str(p), "23")
    assert records(out)[0]["outputs"] == {"splitting": "inert"}
    _, out, _ = run_cli(capsys, "power-char", "2", str(p), "23")
    chi = records(out)[0]["outputs"]
    # the ideal is (p, x - r) with r a primitive 23rd root of unity mod p,
    # and the character is the k with 2^((p - 1)/23) = r^k mod p
    c, one = chi["ideal_factor"]
    r, k = -c % p, chi["value"]
    assert one == 1 and r != 1 and pow(r, 23, p) == 1
    assert k != 0 and pow(2, (p - 1) // 23, p) == pow(r, k, p)


def test_prime_errors_name_the_refused_argument(capsys):
    # the two argvs differ only in which argument is not a prime
    assert run_cli(capsys, "power-char", "2", "9", "3") == (2, "", "error: p = 9 is not a prime\n")
    assert run_cli(capsys, "power-char", "2", "3", "9") == (2, "", "error: q = 9 is not a prime\n")


def test_kummer(capsys):
    code, out, _ = run_cli(capsys, "kummer", "2", "7", "3")
    assert code == 0
    assert records(out)[0]["outputs"]["splitting"] == "inert"


def test_norm(capsys):
    code, out, _ = run_cli(capsys, "norm", "2", "7", "3", "2")
    assert code == 0
    rec = records(out)[0]
    assert rec["outputs"] == {
        "case": "split_base_char_nontrivial",
        "f_prime": 1,
        "f_rel": 3,
        "is_norm": True,
        "m": 6,
    }


def test_norm_ramified_input_is_reported(capsys):
    code, out, _ = run_cli(capsys, "norm", "7", "7", "3", "1")
    assert code == 0
    rec = records(out)[0]
    assert rec["outputs"]["case"] == "ramified"
    assert rec["outputs"]["is_norm"] is None


def test_pretty_mode_on_either_side(capsys):
    code, out, _ = run_cli(capsys, "--pretty", "cyclo", "2", "3")
    assert code == 0 and out.startswith("cyclo:")
    code, out, _ = run_cli(capsys, "cyclo", "2", "3", "--pretty")
    assert code == 0 and out.startswith("cyclo:")


def test_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "7", "--bound", "300")
    _, second, _ = run_cli(capsys, "verify", "7", "--bound", "300")
    assert first == second


EXACT_STDOUT = (
    (["hilbert", "-1", "3", "2", "--oracle"],
     '{"command":"hilbert","inputs":{"alpha":-1,"beta":3,"place":"2"},'
     '"outputs":{"agree":true,"k_star":5,"oracle":false,"value":-1},"witness":null}'),
    (["quat-split", "-3", "3", "--witness", "10"],
     '{"command":"quat-split","inputs":{"alpha":-3,"beta":3},'
     '"outputs":{"split":true,"symbols":{"2":1,"3":1,"inf":1}},"witness":{"x":1,"y":1,"z":0}}'),
    (["represent", "13", "29"],
     '{"command":"represent","inputs":{"n":13,"q":29},"outputs":{"exists":true},"witness":{"x":4,"y":1}}'),
    (["verify", "3", "--bound", "100"],
     '{"command":"verify","inputs":{"bound":100,"n":3},"outputs":{"bound":100,"congruence_count":12,'
     '"congruence_implies_split":true,"converse_failures":[],"converse_required":true,'
     '"disagreements":[],"mandated_ok":true,"n":3,"primes_checked":24,"representation_count":12,'
     '"representation_iff_congruence":true,"split_count":12,"split_implies_congruence":true},'
     '"witness":null}'),
    (["cyclo", "2", "3"],
     '{"command":"cyclo","inputs":{"p":2,"q":3},"outputs":{"e":1,"f":2,"g":1},"witness":null}'),
    (["power-char", "2", "7", "3"],
     '{"command":"power-char","inputs":{"alpha":2,"p":7,"q":3},'
     '"outputs":{"ideal_factor":[3,1],"value":1},"witness":null}'),
    (["kummer", "2", "7", "3"],
     '{"command":"kummer","inputs":{"alpha":2,"p":7,"q":3},"outputs":{"splitting":"inert"},"witness":null}'),
    (["norm", "2", "7", "3", "2"],
     '{"command":"norm","inputs":{"alpha":2,"l":2,"p":7,"q":3},"outputs":{"case":'
     '"split_base_char_nontrivial","f_prime":1,"f_rel":3,"is_norm":true,"m":6},"witness":null}'),
)


def test_exact_stdout_of_every_subcommand(capsys):
    for argv, line in EXACT_STDOUT:
        assert run_cli(capsys, *argv) == (0, line + "\n", ""), argv


def test_replay_of_the_cli_reference(capsys):
    # every request of bench/ref/cli.json, in process: exit code, stdout and
    # stderr byte for byte.  The pool also reaches `hilbert ... inf --oracle`
    # and the division-algebra note of `quat-split --witness`.
    ref = Path(__file__).resolve().parent.parent / "bench" / "ref" / "cli.json"
    requests = json.loads(ref.read_text())["requests"]
    assert len(requests) == 1000
    assert ["hilbert", "12", "20", "inf", "--oracle"] in [r["argv"] for r in requests]
    assert any("no rational point exists" in r["stdout"] for r in requests)
    for r in requests:
        assert run_cli(capsys, *r["argv"]) == (r["exit"], r["stdout"], r["stderr"]), r["argv"]


def test_exact_pretty_text(capsys):
    code, out, _ = run_cli(capsys, "quat-split", "-3", "3", "--witness", "10", "--pretty")
    assert code == 0
    assert out == (
        "quat-split:\n"
        "  in  alpha = -3\n"
        "  in  beta = 3\n"
        "  out split = True\n"
        "  out symbols = {'inf': 1, '2': 1, '3': 1}\n"
        "  witness = {'x': 1, 'y': 1, 'z': 0}\n"
    )


def test_record_roundtrip():
    rec = ReportRecord("kummer", {"alpha": 2}, {"splitting": "inert"}, None)
    assert json.loads(rec.to_json()) == {
        "command": "kummer", "inputs": {"alpha": 2},
        "outputs": {"splitting": "inert"}, "witness": None,
    }
    rec = ReportRecord("quat-split", {"alpha": -3}, {"split": True}, {"x": 1, "y": 1, "z": 0})
    assert json.loads(rec.to_json()) == {
        "command": "quat-split", "inputs": {"alpha": -3},
        "outputs": {"split": True}, "witness": {"x": 1, "y": 1, "z": 0},
    }


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def readme_commands(section):
    """argv lists of the `brauersplit ...` lines in README's sh block under
    the heading `## {section}`, comments stripped."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    body = re.search(rf"^## {section}\n(.*?)(?=^## )", readme, re.M | re.S).group(1)
    block = re.search(r"^```sh\n(.*?)^```", body, re.M | re.S).group(1)
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("brauersplit ")
    ]


def test_readme_commands_run(capsys):
    # every documented invocation must parse and finish; verify all exits 1
    # on n = 14 by design.  No command writes a file: records go to stdout.
    for section in ("CLI", "Experiments"):
        commands = readme_commands(section)
        assert commands, section
        for argv in commands:
            code, _, err = run_cli(capsys, *argv)
            assert code in (0, 1), (argv, err)
