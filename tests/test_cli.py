import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import pytest

from sweepwords import cli, genericity, graphs, witness, words
from sweepwords.cli import main
from sweepwords.genericity import CERTIFY_MAX_N, LENGTH_MAX_N, TRIALS_MAX
from sweepwords.graphs import GRAPH_MAX_VERTICES
from sweepwords.witness import WITNESS_MAX_BASE_BITS, WITNESS_MAX_N
from sweepwords.words import MAX_G, WORDS_MAX_D, WORDS_MAX_N

# a prime other than the default 2^61 - 1; every prime runs one kernel
P61M31 = str((1 << 61) - 31)


def refuse(*args, **kwargs):
    raise AssertionError("work started before the size check")


# in place of `words.itertools`: the grid's words are the letter tuples of
# itertools.product, so no word can be built
NO_WORDS = SimpleNamespace(product=refuse, islice=refuse)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(argv)
    return code, json.loads(out) if out else None, err


class TestWordsCommand:
    def test_n2_grid(self):
        code, env, _ = run_json(["words", "--n", "2"])
        assert code == 0
        assert env["result"]["grid"]["grid"] == [["aa", "ab"], ["ba", "bb"]]
        assert env["command"] == "words"
        assert env["paper_refs"]

    def test_n3_grid_shape(self):
        code, env, _ = run_json(["words", "--n", "3", "--g", "2"])
        assert code == 0
        grid = env["result"]["grid"]
        assert grid["d"] == 2
        assert len(grid["grid"]) == 3
        assert all(len(word) == 4 for row in grid["grid"] for word in row)

    def test_invalid_alphabet_exits_2(self):
        code, _, err = run(["words", "--n", "2", "--g", "1"])
        assert code == 2
        assert "invalid" in err

    def test_alphabet_without_string_form_exits_2(self):
        # letters print as a..z, so g = 27 has no string form, even for a
        # grid whose words use only a and b
        for fmt in ("json", "csv", "text"):
            code, out, err = run(["words", "--n", "4", "--g", "27", "--format", fmt])
            assert code == 2
            assert out == ""
            assert "g <= 26" in err
        code, env, _ = run_json(["words", "--n", "2", "--g", "26"])
        assert code == 0
        assert env["result"]["grid"]["grid"] == [["aa", "ab"], ["ba", "bb"]]

    def test_missing_required_flag_exits_2(self):
        code, _, _ = run(["words"])
        assert code == 2

    def test_d_override_is_flagged(self):
        code, env, _ = run_json(["words", "--n", "2", "--d", "2"])
        assert code == 0
        assert env["config"]["d"] == 2
        assert env["config"]["d_overridden"] is True

    def test_csv_format(self):
        code, out, _ = run(["words", "--n", "2", "--format", "csv"])
        assert code == 0
        assert out.splitlines()[0] == "i,j,word"
        assert "1,2,ab" in out

    def test_out_file(self, tmp_path):
        target = tmp_path / "grid.json"
        code, out, _ = run(["words", "--n", "2", "--out", str(target)])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["command"] == "words"

    def test_size_above_cap_exits_2(self, monkeypatch):
        monkeypatch.setattr(words, "itertools", NO_WORDS)
        for argv in (
            ["--n", str(WORDS_MAX_N + 1)],
            ["--n", "2", "--d", str(WORDS_MAX_D + 1)],
            ["--n", "2", "--g", str(MAX_G + 1)],
        ):
            code, out, err = run(["words", *argv])
            assert code == 2
            assert out == ""
            assert "capped" in err

    def test_out_under_missing_directory_exits_2(self, tmp_path):
        target = tmp_path / "missing" / "x"
        code, out, err = run(["words", "--n", "2", "--out", str(target)])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "cannot write" in err
        assert not target.parent.exists()


class TestCertifyCommand:
    def test_certified_run_exits_0(self):
        code, env, _ = run_json(["certify", "--n", "8", "--trials", "3"])
        assert code == 0
        cert = env["result"]["certification"]
        assert cert["successes"] == 3
        assert cert["status"] == "certified"
        # --prime defaults to 2^61 - 1, resolved when the command runs
        assert env["config"]["prime"] == "2305843009213693951"

    def test_other_prime_certifies_at_n_19(self):
        # past n = 18, which once capped every prime but 2^61 - 1
        code, env, _ = run_json(
            ["certify", "--n", "19", "--trials", "1", "--prime", P61M31]
        )
        assert code == 0
        cert = env["result"]["certification"]
        assert cert["status"] == "certified"
        assert cert["p"] == P61M31

    def test_duplicate_injection_exits_1(self):
        code, env, _ = run_json(
            ["certify", "--n", "2", "--trials", "3", "--inject-duplicate"]
        )
        assert code == 1
        cert = env["result"]["certification"]
        assert cert["successes"] == 0
        assert cert["status"] == "inconclusive"

    def test_g3_grid(self):
        code, env, _ = run_json(["certify", "--n", "9", "--g", "3", "--trials", "3"])
        assert code == 0
        assert env["result"]["certification"]["successes"] == 3

    def test_byte_identical_outputs(self):
        _, out1, _ = run(["certify", "--n", "4", "--seed", "9"])
        _, out2, _ = run(["certify", "--n", "4", "--seed", "9"])
        assert out1 == out2

    def test_random_words_harness(self):
        code, env, _ = run_json(
            ["certify", "--n", "3", "--trials", "2", "--random-words", "--seed", "2"]
        )
        assert code in (0, 1)  # exploratory: either outcome is a valid run
        assert env["result"]["certification"]["trials"] == 2

    def test_random_words_unary_alphabet_exits_2(self):
        code, out, err = run(["certify", "--random-words", "--g", "1", "--n", "3"])
        assert code == 2
        assert out == ""
        assert "invalid" in err

    def test_csv_rows(self):
        code, out, _ = run(["certify", "--n", "3", "--trials", "2", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,g,seed,trial,nonzero"
        assert len(lines) == 3

    def test_size_above_cap_exits_2(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built a grid or tuple before the size check")

        monkeypatch.setattr(genericity, "build_word_grid", refuse)
        monkeypatch.setattr(genericity, "sample_tuple", refuse)
        for argv in (
            ["--n", str(CERTIFY_MAX_N + 1)],
            ["--n", str(CERTIFY_MAX_N + 1), "--random-words"],
            ["--n", str(CERTIFY_MAX_N + 1), "--prime", P61M31],
        ):
            code, out, err = run(["certify", *argv])
            assert code == 2
            assert out == ""
            assert "capped" in err

    def test_trials_above_cap_exit_2(self, monkeypatch):
        monkeypatch.setattr(genericity, "build_word_grid", refuse)
        monkeypatch.setattr(genericity, "sample_tuple", refuse)
        for mode in ([], ["--random-words"]):
            code, out, err = run(
                ["certify", "--n", "3", "--trials", str(TRIALS_MAX + 1), *mode]
            )
            assert code == 2
            assert out == ""
            assert "capped" in err

    def test_degree_and_alphabet_above_cap_exit_2(self, monkeypatch):
        monkeypatch.setattr(words, "itertools", NO_WORDS)
        # every random draw, of words or of a tuple, is seeded through it
        monkeypatch.setattr(genericity, "derive_trial_seed", refuse)
        monkeypatch.setattr(genericity, "sample_tuple", refuse)
        for argv in (
            ["--d", str(WORDS_MAX_D + 1)],
            ["--d", "20000"],
            ["--g", str(MAX_G + 1)],
        ):
            for mode in ([], ["--random-words"]):
                code, out, err = run(["certify", "--n", "2", *argv, *mode])
                assert code == 2
                assert out == ""
                assert "capped" in err

    def test_alphabet_without_string_form_exits_2_before_sampling(
        self, monkeypatch
    ):
        # the word digest needs letters a..z; it is taken before any trial
        monkeypatch.setattr(genericity, "sample_tuple", refuse)
        for mode in ([], ["--random-words"]):
            code, out, err = run(
                ["certify", "--n", "20", "--g", "27", "--trials", "3", *mode]
            )
            assert code == 2
            assert out == ""
            assert "g <= 26" in err


class TestGraphCommand:
    def test_enumerate_level_two(self):
        code, env, _ = run_json(["graph", "--g", "2", "--d", "2", "--enumerate"])
        assert code == 0
        assert env["result"]["enumeration"]["count"] == 1
        assert env["result"]["derived_partition_passes"] is True

    def test_scaled_enumeration(self):
        code, env, _ = run_json(
            ["graph", "--g", "2", "--d", "1", "--m-scale", "2", "--enumerate"]
        )
        assert code == 0
        assert env["result"]["enumeration"]["count"] == 1

    def test_three_letters_level_two_is_unique(self):
        # 82 search nodes, within the default budget
        code, env, _ = run_json(["graph", "--g", "3", "--d", "2", "--enumerate"])
        assert code == 0
        assert env["result"]["enumeration"] == {
            "budget": cli.DEFAULT_BUDGET,
            "count": 1,
            "saturated_at_cap": False,
        }

    # each level's dual certificate keeps one walk per word, so the search
    # takes g^(2d) + 1 nodes: 65 at level 3, 257 at four letters
    @pytest.mark.parametrize("g,d", [(2, 3), (4, 2)])
    def test_certified_level_is_unique_at_default_budget(self, g, d):
        argv = ["graph", "--g", str(g), "--d", str(d), "--enumerate"]
        code, env, _ = run_json(argv)
        assert code == 0
        assert env["result"]["enumeration"] == {
            "budget": cli.DEFAULT_BUDGET,
            "count": 1,
            "saturated_at_cap": False,
        }

    def test_level_three_exceeds_default_budget(self):
        # 65 search nodes finish level 3; 10 do not
        code, _, err = run(
            ["graph", "--g", "2", "--d", "3", "--enumerate", "--budget", "10"]
        )
        assert code == 3
        assert "budget" in err

    def test_negative_budget_exits_2(self):
        code, out, err = run(
            ["graph", "--g", "2", "--d", "1", "--enumerate", "--budget", "-1"]
        )
        assert code == 2
        assert out == ""
        assert "budget must be >= 0" in err

    def test_candidate_walk_cap_exits_2(self, monkeypatch):
        # level 2 lists 116 candidate walks; below that the search refuses
        monkeypatch.setattr(graphs, "CANDIDATE_WALKS_MAX", 115)
        code, out, err = run(["graph", "--g", "2", "--d", "2", "--enumerate"])
        assert code == 2
        assert out == ""
        assert "candidate walks" in err

    def test_deep_scaled_search_exits_2(self):
        # 4 * 400 walks would recurse past the interpreter's limit; the
        # search refuses them up front, without a traceback
        code, out, err = run(
            ["graph", "--g", "2", "--d", "1", "--m-scale", "400", "--enumerate"]
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "capped" in err

    def test_size_above_cap_exits_2(self, monkeypatch):
        # g = 2, d = 17 has 2 * GRAPH_MAX_VERTICES vertices
        monkeypatch.setattr(graphs, "Counter", refuse)
        monkeypatch.setattr(graphs, "LabeledMultigraph", refuse)
        assert 2**17 == 2 * GRAPH_MAX_VERTICES
        for argv in (
            ["--g", "2", "--d", "17"],
            ["--g", "2", "--d", str(10**18), "--enumerate"],
            ["--g", str(MAX_G + 1), "--d", "1"],
        ):
            code, out, err = run(["graph", *argv])
            assert code == 2
            assert out == ""
            assert "capped" in err

    def test_edge_dump_matches_level_one_multiplicities(self):
        code, env, _ = run_json(["graph", "--g", "2", "--d", "1"])
        assert code == 0
        edges = {
            (e["from"], e["to"], e["label"]): e["mult"]
            for e in env["result"]["graph"]["edges"]
        }
        assert edges == {(1, 1, 1): 4, (1, 2, 2): 2, (2, 1, 2): 2}

    def test_dot_export(self, tmp_path):
        target = tmp_path / "graph.dot"
        code, _, _ = run(["graph", "--g", "2", "--d", "1", "--dot", str(target)])
        assert code == 0
        assert target.read_text().startswith("digraph")

    def test_dot_under_missing_directory_exits_2(self, monkeypatch, tmp_path):
        # refused before the graph is built, let alone searched
        def refuse(*args, **kwargs):
            raise AssertionError("built the graph before the path check")

        monkeypatch.setattr(cli, "build_graph", refuse)
        target = tmp_path / "missing" / "x"
        code, out, err = run(
            ["graph", "--g", "2", "--d", "2", "--enumerate", "--dot", str(target)]
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "cannot write" in err
        assert not target.parent.exists()

    def test_csv_edges(self):
        code, out, _ = run(["graph", "--g", "2", "--d", "1", "--format", "csv"])
        assert code == 0
        assert out.splitlines()[0] == "from,to,label,mult"


class TestLengthCommand:
    def test_single_size(self):
        code, env, _ = run_json(["length", "--n", "4", "--trials", "2"])
        assert code == 0
        reports = env["result"]["experiments"][0]["reports"]
        assert all(r["within_log_bound"] for r in reports)
        assert env["config"]["prime"] == "2305843009213693951"

    def test_n1_edge_case(self):
        code, env, _ = run_json(["length", "--n", "1", "--trials", "2"])
        assert code == 0
        assert [r["length"] for r in env["result"]["experiments"][0]["reports"]] == [1, 1]

    def test_sweep_csv(self):
        code, out, _ = run(
            ["length", "--n", "2..4", "--trials", "2", "--format", "csv"]
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 3 * 2
        assert lines[1].startswith("2,2,0,")

    def test_bad_range_exits_2(self):
        code, _, _ = run(["length", "--n", "5..3"])
        assert code == 2

    def test_include_identity_flag(self):
        code, env, _ = run_json(
            ["length", "--n", "2", "--trials", "1", "--include-identity"]
        )
        assert code == 0
        assert env["config"]["include_identity"] is True

    def test_size_above_cap_exits_2(self, monkeypatch):
        # a range reaching past the cap is refused before its first size runs
        def refuse(*args, **kwargs):
            raise AssertionError("ran an experiment before the size check")

        monkeypatch.setattr(cli, "generic_length_experiment", refuse)
        for sizes in [str(LENGTH_MAX_N + 1), f"2..{LENGTH_MAX_N + 1}"]:
            code, out, err = run(["length", "--n", sizes])
            assert code == 2
            assert out == ""
            assert "capped" in err

    def test_no_trials_exits_2(self, monkeypatch):
        # refused before the first size of a range runs
        def refuse(*args, **kwargs):
            raise AssertionError("ran an experiment before the trials check")

        monkeypatch.setattr(cli, "generic_length_experiment", refuse)
        for sizes in ["2", "2..4"]:
            for trials in ["0", "-3"]:
                code, out, err = run(["length", "--n", sizes, "--trials", trials])
                assert code == 2
                assert out == ""
                assert "at least one trial" in err

    def test_trials_above_cap_exits_2(self, monkeypatch):
        # refused before the first size of a range runs
        monkeypatch.setattr(cli, "generic_length_experiment", refuse)
        for sizes in ["3", "2..4"]:
            code, out, err = run(
                ["length", "--n", sizes, "--trials", str(TRIALS_MAX + 1)]
            )
            assert code == 2
            assert out == ""
            assert "capped" in err

    def test_unary_alphabet_exits_2(self, monkeypatch):
        # refused before the first size of a range runs
        def refuse(*args, **kwargs):
            raise AssertionError("ran an experiment before the alphabet check")

        monkeypatch.setattr(cli, "generic_length_experiment", refuse)
        for sizes in ["3", "2..4"]:
            for g in ["1", "0"]:
                code, out, err = run(["length", "--n", sizes, "--g", g])
                assert code == 2
                assert out == ""
                assert "need g >= 2" in err

    def test_fold_size_above_cap_exits_2(self, monkeypatch):
        # the primes that once folded in pure Python under a lower cap now
        # share the one cap, checked the same way
        monkeypatch.setattr(cli, "generic_length_experiment", refuse)
        for sizes in [str(LENGTH_MAX_N + 1), f"2..{LENGTH_MAX_N + 1}"]:
            for prime in ("101", P61M31):
                code, out, err = run(["length", "--n", sizes, "--prime", prime])
                assert code == 2
                assert out == ""
                assert "capped" in err

    def test_alphabet_above_cap_exits_2(self, monkeypatch):
        monkeypatch.setattr(cli, "generic_length_experiment", refuse)
        for sizes in ["3", "2..4"]:
            code, out, err = run(["length", "--n", sizes, "--g", str(MAX_G + 1)])
            assert code == 2
            assert out == ""
            assert "capped" in err

    def test_range_work_above_cap_exits_2(self, monkeypatch):
        # a range may cost at most TRIALS_MAX trials at the n cap, at every
        # prime: sum(n^6) over 2..48 is 7.37 * 48^6, so 8 trials fit and 9
        # do not
        monkeypatch.setattr(cli, "generic_length_experiment", refuse)
        for sizes, trials, prime in [
            (f"2..{LENGTH_MAX_N}", "9", []),
            (f"{LENGTH_MAX_N - 1}..{LENGTH_MAX_N}", str(TRIALS_MAX), []),
            (f"2..{LENGTH_MAX_N}", "9", ["--prime", "101"]),
        ]:
            code, out, err = run(["length", "--n", sizes, "--trials", trials, *prime])
            assert code == 2
            assert out == ""
            assert "capped" in err

    def test_range_work_within_cap_is_admitted(self, monkeypatch):
        # stops at the first experiment, after every check has passed
        class Ran(Exception):
            pass

        def ran(*args, **kwargs):
            raise Ran

        monkeypatch.setattr(cli, "generic_length_experiment", ran)
        for argv in [
            ["--n", f"2..{LENGTH_MAX_N}", "--trials", "8"],
            ["--n", str(LENGTH_MAX_N), "--trials", str(TRIALS_MAX)],
            ["--n", f"2..{LENGTH_MAX_N}", "--trials", "8", "--prime", "101"],
        ]:
            with pytest.raises(Ran):
                main(["length", *argv])


class TestWitnessCommand:
    def test_base_ten_fixture(self):
        code, env, _ = run_json(["witness", "--n", "2", "--base", "10"])
        assert code == 0
        wit = env["result"]["witness"]
        assert wit["discriminant"] == "1000000"
        assert wit["escalations"] == 0
        assert wit["certified"] is True

    def test_default_base_fixture(self):
        code, env, _ = run_json(["witness", "--n", "2"])
        assert code == 0
        assert env["result"]["witness"]["discriminant"] == str(9**6)

    def test_matrices_serialized_as_decimal_strings(self):
        _, env, _ = run_json(["witness", "--n", "3"])
        mats = env["result"]["matrices"]["matrices"]
        assert all(isinstance(x, str) for mat in mats for x in mat["entries"])

    def test_paper_constants_flag(self):
        code, env, _ = run_json(["witness", "--n", "4", "--paper-constants"])
        assert code == 0
        assert env["result"]["reported_constants"]["c_values"] == [3, 5]

    def test_determinism_across_runs(self):
        _, out1, _ = run(["witness", "--n", "4"])
        _, out2, _ = run(["witness", "--n", "4"])
        assert out1 == out2

    def test_csv_support(self):
        code, out, _ = run(["witness", "--n", "2", "--format", "csv"])
        assert code == 0
        assert out.splitlines()[0] == "k,i,j,exponent"

    def test_size_above_cap_exits_2(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built a witness before the size check")

        monkeypatch.setattr(witness, "build_word_grid", refuse)
        monkeypatch.setattr(witness, "build_witness", refuse)
        for g in ("2", "3"):
            code, out, err = run(["witness", "--n", str(WITNESS_MAX_N + 1), "--g", g])
            assert code == 2
            assert out == ""
            assert "capped" in err

    def test_alphabet_above_cap_exits_2(self, monkeypatch):
        monkeypatch.setattr(witness, "build_word_grid", refuse)
        monkeypatch.setattr(witness, "build_witness", refuse)
        code, out, err = run(["witness", "--n", "2", "--g", str(MAX_G + 1)])
        assert code == 2
        assert out == ""
        assert "capped" in err

    def test_base_above_cap_exits_2(self, monkeypatch):
        monkeypatch.setattr(witness, "build_word_grid", refuse)
        monkeypatch.setattr(witness, "build_witness", refuse)
        for n, base in [(16, 1 << WITNESS_MAX_BASE_BITS), (8, 10**100 + 7)]:
            code, out, err = run(["witness", "--n", str(n), "--base", str(base)])
            assert code == 2
            assert out == ""
            assert "capped" in err


class TestTextFormat:
    def test_flat_lines(self):
        code, out, _ = run(["words", "--n", "2", "--format", "text"])
        assert code == 0
        assert "command: words" in out


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# the cli names that perfbench/tracer.py wraps, with the module defining each
TRACED = {
    "build_word_grid": "words",
    "grid_certification": "genericity",
    "generic_length_experiment": "genericity",
    "build_graph": "graphs",
    "derive_walks_from_certificate": "graphs",
    "verify_partition": "graphs",
    "enumerate_partitions": "graphs",
    "build_and_verify": "witness",
}

_RESOLVE = """
import importlib, json, sys
from sweepwords import cli
name, home = sys.argv[1:]
home = "sweepwords." + home
before = home in sys.modules
fn = getattr(cli, name)
print(json.dumps([
    before,
    fn is getattr(importlib.import_module(home), name),
    vars(cli).get(name) is fn,
]))
"""


def _python(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        check=True,
    )


class TestLazyNames:
    @pytest.mark.parametrize("name", sorted(TRACED))
    def test_name_resolves_to_its_home_function(self, name):
        # in a fresh interpreter: the home module loads on first access, and
        # the function is then kept as a cli global
        out = _python("-c", _RESOLVE, name, TRACED[name]).stdout
        assert json.loads(out) == [False, True, True]

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError):
            cli.no_such_name

    def test_main_calls_wrappers_set_on_cli(self, monkeypatch):
        calls = []
        for name in ("enumerate_partitions", "build_and_verify"):
            real = getattr(cli, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(cli, name, counted)
        assert run(["graph", "--g", "2", "--d", "1", "--enumerate"])[0] == 0
        assert run(["witness", "--n", "4"])[0] == 0
        assert calls == ["enumerate_partitions", "build_and_verify"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["words", "--n", "4"],
            ["certify", "--n", "4", "--trials", "1"],
            ["graph", "--g", "2", "--d", "2", "--enumerate"],
            ["length", "--n", "4", "--trials", "1"],
            ["witness", "--n", "4"],
        ],
    )
    def test_module_run_prints_what_main_prints(self, argv):
        # under `python -m sweepwords.cli` the module is __main__
        code, out, _ = run(argv)
        assert code == 0
        assert _python("-m", "sweepwords.cli", *argv).stdout == out.encode()
