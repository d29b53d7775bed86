import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbonlens import cli, search, selfcheck
from ribbonlens.arith import cf_expand, lens_normalize
from ribbonlens.classify import ribbon_leq_lens, ribbon_leq_sum, ConnectedSum
from ribbonlens.search import EmbeddingCache, find_ribbon_embedding


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestExitCodes:
    def test_yes_is_zero(self):
        code, out, _ = run_cli("ribbon", "2/1", "8/5")
        assert code == 0
        assert "T2 n=2 (m=2,k=1)" in out

    def test_no_is_one(self):
        code, out, _ = run_cli("ribbon", "8/5", "2/1")
        assert code == 1
        assert "square-ratio" in out

    def test_inconclusive_is_two(self):
        code, _, _ = run_cli("--max-nodes", "1", "in-r", "16/7")
        assert code == 2

    def test_d_invariant_refutes_a_large_order_at_once(self):
        # L(10**14, 77777777) has 10**7 cosets of labels, at most two of them
        # closed under conjugation: the non-member is proved inside a second,
        # where a scan of every coset spent the 2 s clock and exited 2
        start = time.perf_counter()
        code, out, _ = run_cli("--max-seconds", "2", "--format", "json", "in-r", "100000000000000/77777777")
        assert time.perf_counter() - start < 1
        assert code == 1
        assert json.loads(out)["result"]["reason"] == "d-invariant obstruction"

    def test_usage_error_is_sixty_four(self):
        for argv in (
            ["cf", "7/0"],
            ["cf", "x/y"],
            ["ribbon", "4/2", "3/1"],
            ["cf", "3/4"],
            ["embed", "--summands", "1,2"],
            ["nope"],
            ["ribbon-sum", "2/1", "--", "--"],
            ["embed", "--ribbon-split", "2", "--summands", "2", "--summands", "2,3,2"],
            ["embed", "--ribbon-split", "1", "--summands", "2"],
            ["selfcheck", "--max-p", "1"],
            ["selfcheck", "--max-p", "-3"],
        ):
            code, _, err = run_cli(*argv)
            assert code == 64, argv
            assert err

    @pytest.mark.parametrize("flag", [["--max-nodes", "1"], ["--max-seconds", "5"], ["--cache", "c.json"]])
    def test_selfcheck_rejects_budget_and_cache_flags(self, flag):
        # the suites take their budget from the environment only
        code, out, err = run_cli(*flag, "selfcheck", "--max-p", "4")
        assert code == 64
        assert flag[0] in err and not out

    def test_help_is_zero_on_the_given_stdout(self):
        code, out, _ = run_cli("ribbon", "--help")
        assert code == 0 and out.startswith("usage:")

    @pytest.mark.parametrize(
        "env, argv, named",
        [
            ({"RIBBONLENS_MAX_NODES": "abc"}, ["in-r", "4/3"], "RIBBONLENS_MAX_NODES"),
            ({"RIBBONLENS_MAX_SECONDS": "abc"}, ["in-r", "4/3"], "RIBBONLENS_MAX_SECONDS"),
            ({}, ["--max-nodes", "-5", "in-r", "4/3"], "--max-nodes"),
            ({}, ["--max-seconds", "0", "in-r", "4/3"], "--max-seconds"),
            ({}, ["--max-nodes", "-5", "cf", "7/4"], "--max-nodes"),
            ({"RIBBONLENS_MAX_NODES": "abc"}, ["cf", "7/4"], "RIBBONLENS_MAX_NODES"),
            # the suites read the environment budget themselves
            ({"RIBBONLENS_MAX_SECONDS": "0"}, ["selfcheck"], "RIBBONLENS_MAX_SECONDS"),
        ],
    )
    def test_bad_budget_is_usage_error(self, monkeypatch, env, argv, named):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        code, out, err = run_cli(*argv)
        assert code == 64
        assert named in err and not out


class TestOneParser:
    """run parses every call with the one parser of the process."""

    @pytest.mark.parametrize(
        "command, query",
        [("ribbon", "ribbon_leq_lens"), ("ribbon-sum", "ribbon_leq_sum"), ("bridge", "chi_leq_bridge")],
    )
    def test_query_is_looked_up_on_each_call(self, monkeypatch, command, query):
        # the parser is built before the query is rebound, so a parser that
        # held the query would still call the original
        assert run_cli(command, "2/1", "8/5")[0] == 0
        original = getattr(cli, query)
        calls = []

        def recorder(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, query, recorder)
        assert run_cli(command, "2/1", "8/5")[0] == 0
        assert len(calls) == 1

    def test_no_state_carries_from_one_call_to_the_next(self, monkeypatch):
        for name in ("RIBBONLENS_CACHE", "RIBBONLENS_MAX_NODES", "RIBBONLENS_MAX_SECONDS"):
            monkeypatch.delenv(name, raising=False)
        assert cli.build_parser() is cli.build_parser()
        # each pair differs only in a flag or an appended option, whose
        # default must come back on the next call
        argvs = [
            ["--max-nodes", "1", "embed", "--summands", "2,2,2"],
            ["embed", "--summands", "2,2,2"],
            ["--format", "json", "lens", "cmp", "--oriented", "5/1", "5/4"],
            ["--format", "json", "lens", "cmp", "5/1", "5/4"],
            ["embed", "--summands", "2,2,2", "--summands", "2,2,2"],
            ["embed", "--summands", "2,2,2"],
            ["ribbon", "--", "-7/4", "7/3"],
            ["ribbon", "--help"],
        ]
        forwards = [run_cli(*argv) for argv in argvs]
        backwards = [run_cli(*argv) for argv in reversed(argvs)][::-1]
        assert forwards == backwards
        assert [code for code, _, _ in forwards] == [2, 0, 1, 0, 0, 0, 0, 0]
        assert forwards[2][1] != forwards[3][1] and forwards[4][1] != forwards[5][1]


class TestContinuedFractionBudget:
    """cf counts the terms first and builds no expansion over the node budget,
    and an expansion under it stops at the query's clock."""

    def test_expansion_over_the_node_budget_is_not_built(self):
        # 1000001/1000000 is a run of 10**6 terms 2 and one 1000001
        start = time.perf_counter()
        code, out, err = run_cli("--max-nodes", "1000", "--format", "json", "cf", "1000001/1000000")
        assert time.perf_counter() - start < 0.5
        assert code == cli.EXIT_INCONCLUSIVE == 2
        assert json.loads(out)["result"] == {"fraction": "1000001/1000000", "terms": None, "value": None}
        # one line naming the term count and the budget
        assert err.count("\n") == 1 and "1000000 terms" in err and err.rstrip().endswith(" 1000")

    def test_expansion_stops_at_the_clock(self):
        # 5000001/5000000 is a run of 5 * 10**6 terms 2, well under the node
        # budget; the expansion reads the clock every 2,048 terms
        start = time.perf_counter()
        code, out, err = run_cli("--max-seconds", "0.2", "--format", "json", "cf", "5000001/5000000")
        assert time.perf_counter() - start < 1.0
        assert code == cli.EXIT_INCONCLUSIVE == 2
        assert json.loads(out)["result"] == {"fraction": "5000001/5000000", "terms": None, "value": None}
        assert err.count("\n") == 1 and "5000000 terms" in err and err.rstrip().endswith("0.2 s")

    def test_expansion_at_the_node_budget_is_built(self):
        code, out, err = run_cli("--max-nodes", "2", "cf", "7/4")
        assert (code, out, err) == (0, "7/4 = [2,4]^-\n", "")
        code, out, err = run_cli("--max-nodes", "1", "cf", "7/4")
        assert (code, out) == (2, "7/4: inconclusive\n") and "2 terms" in err

    def test_seven_fourths_is_the_golden(self, monkeypatch):
        for name in ("RIBBONLENS_MAX_NODES", "RIBBONLENS_MAX_SECONDS"):
            monkeypatch.delenv(name, raising=False)
        _, out, _ = run_cli("--format", "json", "cf", "7/4")
        assert out.encode() == selfcheck.golden_path("cf-7-4").read_bytes()

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_long_expansion_renders_each_term_once(self, monkeypatch, fmt):
        # 100001/100000 is 10**5 terms 2; the JSON list and the text line
        # share one string per distinct term
        for name in ("RIBBONLENS_MAX_NODES", "RIBBONLENS_MAX_SECONDS"):
            monkeypatch.delenv(name, raising=False)
        terms = [str(a) for a in cf_expand(Fraction(100001, 100000))]
        if fmt == "json":
            result = {"fraction": "100001/100000", "terms": terms, "value": "100001/100000"}
            envelope = {"schema": cli.SCHEMA, "command": "cf", "result": result}
            expected = json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n"
        else:
            expected = f"100001/100000 = [{','.join(terms)}]^-\n"
        del terms
        run_cli("cf", "7/4")  # the parser is built outside the measurement
        out, err = io.StringIO(), io.StringIO()
        tracemalloc.start()
        try:
            code = cli.run(["--format", fmt, "cf", "100001/100000"], stdout=out, stderr=err)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out.getvalue(), err.getvalue()) == (0, expected, "")
        # a new string per term and per rendering peaks at 12 MB in either format
        assert peak < 6 * 2**20

    def test_failed_round_trip_is_an_internal_error(self, monkeypatch):
        # a check that python -O would not remove: [2,3]^- is 5/3, not 7/4
        monkeypatch.setattr(cli, "cf_expand", lambda f: (2, 3))
        code, out, err = run_cli("cf", "7/4")
        assert code == cli.EXIT_SOFTWARE == 70 and not out and "evaluates to 5/3" in err

    def test_long_expansion_checks_its_round_trip_in_linear_time(self, monkeypatch):
        # 10**6 terms are checked by two integer continuants in about 0.5 s;
        # a Fraction per term took about 3-4 s (2-vCPU machine, CPython 3.11)
        for name in ("RIBBONLENS_MAX_NODES", "RIBBONLENS_MAX_SECONDS"):
            monkeypatch.delenv(name, raising=False)
        run_cli("cf", "7/4")  # the parser is built outside the measurement
        start = time.perf_counter()
        code, out, err = run_cli("--max-seconds", "1", "--format", "json", "cf", "1000001/1000000")
        assert time.perf_counter() - start < 2.5
        assert (code, err) == (0, "")
        assert len(json.loads(out)["result"]["terms"]) == 10**6


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_module_cli(stdout, buffered, *argv):
    """Run python -m ribbonlens.cli with the given stdout; buffered leaves the
    answer to the interpreter's exit flush, as an installed script does."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    done = subprocess.run(
        [sys.executable, "-m", "ribbonlens.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
    )
    return done.returncode, done.stderr


class TestUnwritableStdout:
    """An answer that cannot be written exits 74 with one line on stderr."""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("buffered", [True, False])
    def test_full_device(self, buffered):
        with open("/dev/full", "w") as full:
            code, err = run_module_cli(full, buffered, "cf", "7/4")
        assert code == cli.EXIT_IOERR == 74
        assert err.startswith("output error:") and err.count("\n") == 1

    @pytest.mark.parametrize("buffered", [True, False])
    def test_closed_pipe(self, buffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            code, err = run_module_cli(write_end, buffered, "--format", "json", "cf", "7/4")
        finally:
            os.close(write_end)
        assert code == 74
        assert "Broken pipe" in err and err.count("\n") == 1

    def test_flush_error_in_process(self):
        class Closed(io.StringIO):
            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        err = io.StringIO()
        assert cli.run(["cf", "7/4"], stdout=Closed(), stderr=err) == 74
        assert err.getvalue().startswith("output error:")


def run_module_cli_without_stderr(how, buffered, *argv):
    """Run python -m ribbonlens.cli after `2>&-`: with descriptor 2 closed,
    sys.stderr is None; when a launcher such as a shell-script shim has
    reopened descriptor 2 on a file of its own, every write to it fails."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open(os.devnull) as read_only:
        done = subprocess.run(
            [sys.executable, "-m", "ribbonlens.cli", *argv],
            stdout=subprocess.PIPE, text=True, env=env, timeout=120,
            stderr=read_only if how == "read-only" else None,
            preexec_fn=(lambda: os.close(2)) if how == "closed" else None,
        )
    return done.returncode, done.stdout


class UnwritableStderr(io.StringIO):
    def write(self, s):
        raise OSError(9, "Bad file descriptor")


class TestUnwritableStderr:
    """A diagnostic line that cannot be written is dropped; the exit code and
    the answer stay what they would be with stderr open."""

    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize("how", ["closed", "read-only"])
    def test_usage_error_without_stderr(self, how, buffered):
        assert run_module_cli_without_stderr(how, buffered, "cf", "7/0") == (64, "")

    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize("how", ["closed", "read-only"])
    def test_cache_warnings_without_stderr(self, tmp_path, how, buffered):
        clean = run_cli("ribbon", "2/1", "8/5")
        path = tmp_path / "dir"
        path.mkdir()
        code, out = run_module_cli_without_stderr(how, buffered, "--cache", str(path), "ribbon", "2/1", "8/5")
        assert (code, out) == clean[:2]

    def test_usage_error_in_process(self):
        out = io.StringIO()
        assert cli.run(["cf", "7/0"], stdout=out, stderr=UnwritableStderr()) == cli.EXIT_USAGE
        assert not out.getvalue()

    def test_internal_error_in_process(self, monkeypatch):
        def crash(f):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "fn_membership", crash)
        assert cli.run(["fn", "8/5"], stdout=io.StringIO(), stderr=UnwritableStderr()) == cli.EXIT_SOFTWARE

    def test_cache_warning_in_process(self, tmp_path):
        clean = run_cli("ribbon", "2/1", "8/5")
        path = tmp_path / "dir"
        path.mkdir()
        out = io.StringIO()
        code = cli.run(["--cache", str(path), "ribbon", "2/1", "8/5"], stdout=out, stderr=UnwritableStderr())
        assert (code, out.getvalue()) == clean[:2]


class TestParsing:
    def test_negative_lens_token_reverses(self):
        assert cli.parse_lens("-7/3") == lens_normalize(7, 4)
        assert cli.parse_lens("7/3") == lens_normalize(7, 3)
        assert cli.parse_lens("5") == lens_normalize(5, 1)

    def test_sum_tokens(self):
        for token in ("", "S3", "s3", " -S3 "):
            assert cli.parse_sum(token) == ConnectedSum.of()
        assert cli.parse_sum("7/4,7/3").summands == (
            lens_normalize(7, 3),
            lens_normalize(7, 4),
        )

    def test_reversed_operand_after_double_dash(self):
        assert run_cli("ribbon", "-7/4", "7/3")[0] == 64  # read as an option
        code, out, _ = run_cli("ribbon", "--", "-7/4", "7/3")
        assert code == 0
        assert "T1 L(7,3) -> L(7,3)" in out

    def test_link_tokens(self):
        for token in ("", "U", "u", " -U "):
            links = cli.parse_links(token)
            assert links == cli.parse_links("") and len(links) == 1 and links[0].is_unknot
        links = cli.parse_links("8/3,-7/3")
        assert [(k.p, k.q) for k in links] == [(8, 3), (7, 4)]

    @pytest.mark.parametrize(
        "command, sphere, other",
        [
            ("ribbon", "S3", "2/1"),
            ("ribbon", "S3", "-S3"),
            ("ribbon-sum", "S3", "7/4,7/3"),
            ("bridge", "U", "2/1"),
            ("bridge", "U", "7/4,7/3"),
            ("bridge", "U", "-U"),
        ],
    )
    def test_reversed_sphere_and_mirrored_unknot(self, command, sphere, other):
        # the reverse of S3 is S3 and the mirror of U is U
        for argv in ((sphere, other), (other, sphere)):
            want = run_cli(command, "--", *argv)
            assert want[0] in (0, 1) and want[1]
            flipped = ["-" + token if token == sphere else token for token in argv]
            assert run_cli(command, "--", *flipped) == want, flipped


README = SRC.parent / "README.md"
# a "$ ribbonlens ..." line of README and the lines printed below it, up to a
# blank line or the end of the code block
README_EXAMPLE = re.compile(r"^\$ ribbonlens (.*)\n((?:(?!```).+\n)*)", re.MULTILINE)


def test_readme_examples(monkeypatch):
    for name in ("RIBBONLENS_CACHE", "RIBBONLENS_MAX_NODES", "RIBBONLENS_MAX_SECONDS"):
        monkeypatch.delenv(name, raising=False)
    examples = README_EXAMPLE.findall(README.read_text())
    assert len(examples) == 3
    for argv, printed in examples:
        _, out, _ = run_cli(*shlex.split(argv))
        assert out.splitlines() == printed.splitlines(), argv


class TestStructuredOutput:
    def test_cf_document(self):
        code, out, _ = run_cli("--format", "json", "cf", "7/4")
        doc = json.loads(out)
        assert code == 0
        assert doc["schema"] == "ribbonlens/2"
        assert doc["result"]["terms"] == ["2", "4"]

    def test_verdict_round_trip(self):
        code, out, _ = run_cli("--format", "json", "ribbon", "2/1", "8/5")
        doc = json.loads(out)
        rebuilt = cli.verdict_from_json(doc["result"]["verdict"])
        direct = ribbon_leq_lens(lens_normalize(2, 1), lens_normalize(8, 5))
        assert rebuilt == direct

    def test_sum_verdict_round_trip(self):
        code, out, _ = run_cli("--format", "json", "ribbon-sum", "", "7/4,7/3")
        doc = json.loads(out)
        rebuilt = cli.verdict_from_json(doc["result"]["verdict"])
        direct = ribbon_leq_sum(
            ConnectedSum.of(),
            ConnectedSum.of(lens_normalize(7, 4), lens_normalize(7, 3)),
        )
        assert rebuilt == direct

    def test_certificate_round_trip(self):
        code, out, _ = run_cli(
            "--format", "json", "embed", "--summands", "2", "--summands", "2,3,2",
            "--ribbon-split", "1",
        )
        doc = json.loads(out)
        rebuilt = cli.certificate_from_json(doc["result"]["certificate"])
        direct = find_ribbon_embedding((2,), (2, 3, 2), cache=EmbeddingCache())
        assert rebuilt == direct.certificate

    def test_embed_text_lists_nonzero_entries(self):
        # one line per group, each vector as coordinate:value of its nonzero entries
        code, out, _ = run_cli("embed", "--summands", "2", "--summands", "2,3,2", "--ribbon-split", "1")
        assert (code, out) == (0, "found (nodes=18)\n  {2:-1,3:1}\n  {0:1,1:1} {0:1,2:1,3:1} {0:1,1:-1}\n")

    def test_long_certificates_are_compact(self):
        # 301 vectors in Z^301 and 300 in Z^300, under 1% of their entries
        # nonzero: 722 KB when every entry was printed
        code, out, _ = run_cli("--format", "json", "in-r", "90000/301")
        assert code == 0 and len(out) < 40_000
        direct = search.r_membership(Fraction(90000, 301), cache=EmbeddingCache()).searches
        for item, (g, outcome) in zip(json.loads(out)["result"]["searches"], direct):
            rebuilt = cli.certificate_from_json(item["certificate"])
            assert rebuilt == outcome.certificate
            assert search.verify_certificate(search.plain_problem((cf_expand(Fraction(g)),)), rebuilt)

    def test_no_floats_anywhere(self):
        for argv in (
            ["--format", "json", "in-r", "4/3"],
            ["--format", "json", "ribbon", "2/1", "8/5"],
            ["--format", "json", "embed", "--summands", "2,2,2"],
        ):
            _, out, _ = run_cli(*argv)

            def walk(node):
                assert not isinstance(node, float), argv
                if isinstance(node, dict):
                    for v in node.values():
                        walk(v)
                elif isinstance(node, list):
                    for v in node:
                        walk(v)

            walk(json.loads(out))


class TestLensAndFn:
    def test_lens_cmp(self):
        assert run_cli("lens", "cmp", "7/2", "7/4", "--oriented")[0] == 0
        assert run_cli("lens", "cmp", "7/2", "7/5", "--oriented")[0] == 1
        assert run_cli("lens", "cmp", "7/2", "7/5")[0] == 0  # unoriented default

    def test_fn(self):
        code, out, _ = run_cli("--format", "json", "fn", "8/5")
        assert code == 0
        assert json.loads(out)["result"]["witnesses"] == [{"n": "2", "m": "2", "k": "1"}]
        assert run_cli("fn", "7/4")[0] == 1

    def test_fn_huge_non_member(self):
        code, out, _ = run_cli("fn", "100000000000000000000000000000001/3")
        assert code == 1 and "no square-multiple family" in out


class TestBridgeCommand:
    def test_bridge_yes(self):
        code, out, _ = run_cli("bridge", "U", "7/4,7/3")
        assert code == 0

    def test_bridge_single(self):
        assert run_cli("bridge", "2/1", "8/5")[0] == 0
        assert run_cli("bridge", "8/5", "2/1")[0] == 1


class TestCacheFile:
    def test_cache_written_and_reused(self, tmp_path):
        path = tmp_path / "cache.json"
        code, out1, _ = run_cli("--cache", str(path), "--format", "json", "in-r", "4/3")
        assert code == 0 and path.exists()
        doc = json.loads(path.read_text())
        assert doc["schema"] == search.CACHE_SCHEMA
        assert sorted(doc["certificates"]) == ["plain|2,2,2", "plain|4"]
        code, out2, _ = run_cli("--cache", str(path), "--format", "json", "in-r", "4/3")
        assert code == 0
        assert json.loads(out1)["result"]["searches"] == json.loads(out2)["result"]["searches"]

    def test_unparsable_cache_file_is_skipped_with_warning(self, tmp_path):
        clean = run_cli("ribbon", "2/1", "8/5")
        path = tmp_path / "bad.json"
        # the second document nests deeper than any recursion limit
        for text in ("{not json", "[" * 200_000):
            path.write_text(text)
            code, out, err = run_cli("--cache", str(path), "ribbon", "2/1", "8/5")
            assert code == 0 and out == clean[1]
            assert err.startswith("warning:") and str(path) in err
            assert json.loads(path.read_text())["schema"] == search.CACHE_SCHEMA

    def test_unparsable_cache_entry_is_skipped(self, tmp_path):
        path = tmp_path / "cache.json"
        argv = ("--cache", str(path), "--format", "json", "in-r", "4/3")
        clean = run_cli(*argv)
        assert clean[0] == 0
        doc = json.loads(path.read_text())
        certs = doc["certificates"]
        bad_nodes = {key: dict(entry, nodes="x") for key, entry in certs.items()}
        bad_key = {"banana|2,2,2": certs["plain|2,2,2"], "plain|1": certs["plain|4"]}
        # 1e999 parses as an infinite float, which int() cannot convert
        huge_nodes = {key: dict(entry, nodes="HUGE") for key, entry in certs.items()}
        # a forged count would be reported as the search's own
        negative_nodes = {key: dict(entry, nodes="-7") for key, entry in certs.items()}
        huge_coefficient = {
            key: dict(entry, groups=[[[[k, "HUGE"] for k, _ in v] for v in group] for group in entry["groups"]])
            for key, entry in certs.items()
        }
        for entries in (bad_nodes, bad_key, huge_nodes, negative_nodes, huge_coefficient):
            path.write_text(json.dumps(dict(doc, certificates=entries)).replace('"HUGE"', "1e999"))
            assert run_cli(*argv) == clean

    def test_vector_not_in_the_sparse_form_is_searched_again(self, tmp_path):
        # the first vector of 2,2,2 in Z^3 given with a coordinate outside
        # [0, 3), a repeated or unsorted coordinate, or a zero value: the entry
        # is dropped, its problem searched again, and the save replaces it
        path = tmp_path / "cache.json"
        argv = ("--cache", str(path), "--format", "json", "in-r", "4/3")
        clean = run_cli(*argv)
        assert clean[0] == 0
        doc = json.loads(path.read_text())
        (k, x), (l, y) = doc["certificates"]["plain|2,2,2"]["groups"][0][0]
        for first in ([[k, x], ["3", y]], [["-1", x], [l, y]], [[k, x], [k, x]], [[l, y], [k, x]], [[k, x], [l, y], ["2", "0"]]):
            bad = json.loads(json.dumps(doc))
            bad["certificates"]["plain|2,2,2"]["groups"][0][0] = first
            path.write_text(json.dumps(bad))
            assert run_cli(*argv) == clean, first
            assert json.loads(path.read_text()) == doc

    def test_unproven_entries_are_not_trusted(self, tmp_path):
        # a negative entry carries nothing to verify, so neither the old
        # schema's "absent" outcome nor a certificate without groups can
        # turn a member into a non-member
        path = tmp_path / "cache.json"
        argv = ("--cache", str(path), "in-r", "4/3")
        clean = run_cli(*argv)
        assert clean[0] == 0
        keys = sorted(json.loads(path.read_text())["certificates"])
        forged_v1 = {
            "schema": "ribbonlens-cache/1",
            "engine": search.ENGINE_VERSION,
            "entries": [
                {"key": key, "outcome": "absent", "nodes": "0", "vectors": None} for key in keys
            ],
        }
        forged_v2 = {
            "schema": search.CACHE_SCHEMA,
            "engine": search.ENGINE_VERSION,
            "certificates": {key: {"groups": None, "nodes": "0"} for key in keys},
        }
        for doc in (forged_v1, forged_v2):
            path.write_text(json.dumps(doc))
            assert run_cli(*argv) == clean

    def test_printed_certificate_is_a_cache_entry(self, tmp_path, monkeypatch):
        argv = ("--format", "json", "embed", "--summands", "2,2,2")
        clean = run_cli(*argv)
        printed = json.loads(clean[1])["result"]["certificate"]
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({
            "schema": search.CACHE_SCHEMA,
            "engine": search.ENGINE_VERSION,
            "certificates": {"plain|2,2,2": printed},
        }))

        def no_search(problem, meter):
            raise AssertionError(f"searched {problem.key}")

        monkeypatch.setattr(search, "_run_problem", no_search)
        assert run_cli("--cache", str(path), *argv) == clean

    def test_previous_schema_loads_nothing_and_is_replaced(self, tmp_path):
        # /2 named the groups "vectors"; /3 wrote every entry of a vector
        argv = ("--format", "json", "embed", "--summands", "2,2,2")
        clean = run_cli(*argv)
        printed = json.loads(clean[1])["result"]["certificate"]
        dense = [[["1", "1", "0"], ["1", "0", "1"], ["1", "-1", "0"]]]
        path = tmp_path / "cache.json"
        for schema, entry in (
            ("ribbonlens-cache/2", {"nodes": printed["nodes"], "vectors": dense}),
            ("ribbonlens-cache/3", {"nodes": printed["nodes"], "groups": dense}),
        ):
            path.write_text(json.dumps({
                "schema": schema,
                "engine": search.ENGINE_VERSION,
                "certificates": {"plain|2,2,2": entry},
            }))
            assert search.EmbeddingCache().load(path) == 0
            assert run_cli("--cache", str(path), *argv) == clean
            doc = json.loads(path.read_text())
            assert doc["schema"] == search.CACHE_SCHEMA == "ribbonlens-cache/4"
            assert doc["certificates"] == {"plain|2,2,2": printed}

    def test_query_that_raises_skips_the_save(self, tmp_path, monkeypatch):
        def crash(problem, meter):
            raise RuntimeError("boom")

        monkeypatch.setattr(search, "_run_problem", crash)
        path = tmp_path / "cache.json"
        assert run_cli("--cache", str(path), "embed", "--summands", "2,2,2")[0] == cli.EXIT_SOFTWARE
        assert not path.exists()

    WARM_QUERIES = (
        ("in-r", "4/3"),
        ("in-r", "16/7"),
        ("ribbon", "2/1", "8/5"),
        ("ribbon-sum", "", "7/4,7/3"),
        ("embed", "--summands", "2,5"),
    )

    def warm_cache_file(self, path):
        for query in self.WARM_QUERIES:
            assert run_cli("--cache", str(path), *query)[0] == 0
        assert len(json.loads(path.read_text())["certificates"]) > 4

    def test_warm_session_verifies_only_what_it_uses(self, tmp_path, monkeypatch):
        # a certificate is verified on its first use, not when the file loads:
        # one verification per cache hit and per certificate found by a search
        path = tmp_path / "cache.json"
        self.warm_cache_file(path)
        counts = {"verify": 0, "hits": 0, "found": 0}
        verify, get, run_problem = search.verify_certificate, search.EmbeddingCache.get, search._run_problem

        def counted_verify(problem, cert):
            counts["verify"] += 1
            return verify(problem, cert)

        def counted_get(cache, problem):
            hit = get(cache, problem)
            counts["hits"] += hit is not None
            return hit

        def counted_run(problem, meter):
            outcome = run_problem(problem, meter)
            counts["found"] += outcome.found
            return outcome

        monkeypatch.setattr(search, "verify_certificate", counted_verify)
        monkeypatch.setattr(search.EmbeddingCache, "get", counted_get)
        monkeypatch.setattr(search, "_run_problem", counted_run)
        for query in (("in-r", "4/3"), ("in-r", "25/7")):
            counts.update(verify=0, hits=0, found=0)
            assert run_cli("--cache", str(path), *query)[0] in (0, 1)
            assert counts["hits"] + counts["found"] > 0
            assert counts["verify"] <= counts["hits"] + counts["found"], (query, counts)

    def test_session_of_hits_leaves_the_file_alone(self, tmp_path):
        path = tmp_path / "cache.json"
        self.warm_cache_file(path)
        before = path.read_bytes()
        # a rewrite would stamp the current time, so start from a past one
        os.utime(path, ns=(10**18, 10**18))
        for query in self.WARM_QUERIES:
            clean = run_cli(*query)
            assert run_cli("--cache", str(path), *query) == clean
        assert path.read_bytes() == before
        assert path.stat().st_mtime_ns == 10**18

        # a search that finds something new is saved
        assert run_cli("--cache", str(path), "in-r", "64/15")[0] == 0
        assert path.stat().st_mtime_ns != 10**18
        assert len(json.loads(path.read_text())["certificates"]) > len(json.loads(before)["certificates"])

        # a cache that loaded no file writes on every save
        search.EmbeddingCache().save(path)
        assert json.loads(path.read_text())["certificates"] == {}

    def test_unknown_key_does_not_cost_a_rewrite(self, tmp_path):
        # an entry whose key names no problem is kept as read, so a session
        # of cache hits still writes nothing
        path = tmp_path / "cache.json"
        argv = ("--cache", str(path), "--format", "json", "in-r", "4/3")
        clean = run_cli(*argv)
        doc = json.loads(path.read_text())
        doc["certificates"]["banana|2,2,2"] = doc["certificates"]["plain|2,2,2"]
        path.write_text(json.dumps(doc))
        before = path.read_bytes()
        os.utime(path, ns=(10**18, 10**18))
        assert run_cli(*argv) == clean
        assert path.read_bytes() == before
        assert path.stat().st_mtime_ns == 10**18

    def test_unwritable_cache_file_costs_a_warning(self, tmp_path):
        clean = run_cli("ribbon", "2/1", "8/5")
        path = tmp_path / "dir"
        path.mkdir()
        code, out, err = run_cli("--cache", str(path), "ribbon", "2/1", "8/5")
        assert code == 0 and out == clean[1]
        assert "warning: could not write cache" in err
        assert not list(tmp_path.glob("*.tmp"))


SURVEY = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "survey_ribbon_pairs.py"


def run_survey(*argv):
    done = subprocess.run(
        [sys.executable, str(SURVEY), "3", *argv], capture_output=True, text=True, timeout=120
    )
    yes = [line for line in done.stdout.splitlines() if line.startswith("Y ")]
    return done.returncode, yes, done.stderr


class TestSurveyScriptCache:
    """The survey script treats a bad cache file as the CLI does."""

    def test_unparsable_cache_file_is_skipped_with_warning(self, tmp_path):
        clean = run_survey()
        assert clean[0] == 0 and clean[1]
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, yes, err = run_survey("--cache", str(path))
        assert (code, yes) == clean[:2]
        assert err.startswith("warning: ignoring unreadable cache") and err.count("\n") == 1
        assert json.loads(path.read_text())["schema"] == search.CACHE_SCHEMA

    def test_directory_as_cache_file_costs_warnings(self, tmp_path):
        clean = run_survey()
        path = tmp_path / "dir"
        path.mkdir()
        code, yes, err = run_survey("--cache", str(path))
        assert (code, yes) == clean[:2]
        lines = err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("warning: ignoring unreadable cache")
        assert lines[1].startswith("warning: could not write cache")
        assert not list(tmp_path.glob("*.tmp"))


    def test_unwritable_stderr_with_buffered_warnings(self, tmp_path):
        # both warnings are dropped but stay buffered; the exit flush must not
        # turn the finished survey into exit 120
        path = tmp_path / "dir"
        path.mkdir()
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        with open(os.devnull) as read_only:
            done = subprocess.run(
                [sys.executable, str(SURVEY), "3", "--cache", str(path)],
                stdout=subprocess.PIPE, stderr=read_only, text=True, env=env, timeout=120,
            )
        assert done.returncode == 0
        assert "ordered pairs" in done.stdout


class TestSurveyScriptOutput:
    @pytest.mark.parametrize("buffered", [True, False])
    def test_closed_pipe(self, buffered, tmp_path):
        # as the CLI: exit 74 and one "output error" line, no traceback; the
        # cache session still saves
        path = tmp_path / "cache.json"
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, str(SURVEY), "3", "--cache", str(path)],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert done.returncode == cli.EXIT_IOERR
        assert done.stderr.startswith("output error:") and done.stderr.count("\n") == 1
        assert json.loads(path.read_text())["schema"] == search.CACHE_SCHEMA


class TestInternalErrors:
    def test_handler_crash_is_seventy(self, monkeypatch):
        def crash(f):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "fn_membership", crash)
        code, out, err = run_cli("fn", "8/5")
        assert code == cli.EXIT_SOFTWARE == 70
        assert not out and err.startswith("internal error:") and err.count("\n") == 1


FUZZ_COMMANDS = (
    ["cf"],
    ["lens", "cmp"],
    ["fn"],
    ["in-r"],
    ["ribbon"],
    ["ribbon-sum"],
    ["bridge"],
    ["embed", "--summands"],
)
FUZZ_TOKENS = st.one_of(
    st.sampled_from(
        ["2/1", "8/5", "-7/4", "7/3", "S3", "U", "16/7", "2/1,3/1", "2,3,2", "1",
         "0", "-1", "1/0", "4/2", "", ",", "--", "--oriented", "--ribbon-split",
         "--summands", "-h", "x"]
    ),
    st.builds(
        lambda p, q, sign: f"{sign}{p}/{q}",
        st.integers(-3, 40),
        st.integers(-1, 40),
        st.sampled_from(["", "-"]),
    ),
    st.text(max_size=6),
)


@settings(max_examples=150)
@given(
    st.sampled_from(FUZZ_COMMANDS),
    st.lists(FUZZ_TOKENS, max_size=4),
    st.sampled_from(["text", "json"]),
)
def test_fuzz_exit_codes(command, tokens, fmt):
    argv = ["--max-nodes", "2000", "--max-seconds", "2", "--format", fmt, *command, *tokens]
    with pytest.MonkeyPatch.context() as mp:
        for name in ("RIBBONLENS_CACHE", "RIBBONLENS_MAX_NODES", "RIBBONLENS_MAX_SECONDS"):
            mp.delenv(name, raising=False)
        code, _, err = run_cli(*argv)
    assert code in (0, 1, 2, 64, 70), (argv, err)
