import ast
import dataclasses
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import tribraid
from tribraid import (
    GenTriple,
    GWord,
    bounded_equal,
    classify_word,
    compile_program,
    format_word,
    program_from_json,
    program_to_json,
    pure_braid_generator_program,
    relation_census,
)
from tribraid.cli import main
from tribraid.index_state import _columns

from helpers import GAP_TABLES


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_gen_full_twist_pipes_into_compile(capsys, monkeypatch, tmp_path):
    code, out, _ = run(capsys, ["gen", "--full-twist", "1", "--n", "4"])
    assert code == 0
    program_json = out.strip()
    path = tmp_path / "twist.json"
    path.write_text(program_json)
    code, out, _ = run(capsys, ["compile", str(path), "--check-closed"])
    assert code == 0
    assert out.strip() == ""  # the empty word
    # a twist has no events, only its turns
    code, out, _ = run(capsys, ["compile", "--events", "-"], program_json, monkeypatch)
    assert (code, out) == (0, "\ntwist_turns=1\n")


def test_compile_from_stdin_with_events(capsys, monkeypatch):
    prog = pure_braid_generator_program(4, 1, 3)
    text = json.dumps(program_to_json(prog))
    code, out, _ = run(capsys, ["compile", "-", "--events"], stdin=text, monkeypatch=monkeypatch)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == format_word(compile_program(prog).word)
    assert all(line.startswith("move=") for line in lines[1:])


def test_compile_n_flag_must_match(capsys, monkeypatch, tmp_path):
    prog = pure_braid_generator_program(4, 1, 3)
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(program_to_json(prog)))
    code, _, err = run(capsys, ["compile", str(path), "--n", "5"])
    assert code == 2 and "contradicts" in err
    code, _, err = run(capsys, ["compile", str(tmp_path / "missing.json")])
    assert code == 2 and err.startswith(f"error: cannot read {tmp_path / 'missing.json'}")


def test_classify_marks_bad_letter(capsys):
    code, out, _ = run(capsys, ["classify", "--n", "4", "a134 a123"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].startswith("1\ta134\tgood\t4")
    assert lines[2].startswith("2\ta123\tbad")
    assert lines[-1] == "realisable: no"


def test_project_stable_then_classify_realisable(capsys, monkeypatch):
    code, out, _ = run(capsys, ["project", "--stable", "--n", "4", "a134 a123"])
    assert code == 0
    projected = out.strip()
    assert projected == "a134"
    code, out, _ = run(
        capsys, ["classify", "--n", "4", "-"], stdin=projected, monkeypatch=monkeypatch
    )
    assert code == 0
    assert out.strip().endswith("realisable: yes")


def test_project_single_pass(capsys):
    code, out, _ = run(capsys, ["project", "--n", "4", "a134 a123"])
    assert code == 0 and out.strip() == "a134"


def test_equal_tetra_example(capsys):
    code, out, _ = run(
        capsys,
        ["equal", "--n", "4", "--depth", "1000", "--max-len", "8",
         "a123 a124 a134 a234", "a234 a134 a124 a123"],
    )
    assert code == 0
    assert out.startswith("equal (1 moves): tetra@0")


def test_equal_distinct_and_unknown(capsys):
    code, out, _ = run(capsys, ["equal", "--n", "4", "a123", "a124"])
    assert code == 0 and out.strip() == "distinct: parity mismatch"
    code, out, _ = run(
        capsys,
        ["equal", "--n", "4", "--depth", "10", "--max-len", "4", "a123 a124", "a124 a123"],
    )
    assert code == 0 and out.startswith("unknown")


def test_equal_unknown_names_the_limit_that_stopped_it(capsys):
    pair = ["a123 a124", "a124 a123"]
    code, out, _ = run(
        capsys, ["equal", "--n", "4", "--depth", "1000", "--max-len", "4", "--stats", *pair]
    )
    assert code == 0 and out.splitlines() == [
        "unknown (every word within max-len=4 reachable from one of the two words searched)",
        "stats: expanded=12 stored=22 peak_frontier=20 stop=exhausted",
    ]
    code, out, _ = run(capsys, ["equal", "--n", "4", "--depth", "10", "--max-len", "4", *pair])
    assert code == 0 and out.strip() == "unknown (depth=10 expansions reached)"


def test_equal_unknown_names_the_letter_limit(capsys, monkeypatch):
    monkeypatch.setattr(tribraid.group_core, "MAX_STORED_LETTERS", 1000)
    monkeypatch.setattr(tribraid.cli, "MAX_STORED_LETTERS", 1000)
    code, out, _ = run(capsys, ["equal", "--n", "10", "a(1,2,3) a(1,2,4)", "a(1,2,4) a(1,2,3)"])
    assert code == 0 and out.strip() == "unknown (stored-letter limit 1,000 reached)"


def test_equal_negative_budget_exits_2(capsys):
    for flag in ("--depth", "--max-len"):
        code, out, err = run(capsys, ["equal", "--n", "4", flag, "-1", "a123", "a123"])
        assert code == 2 and out == "" and "budgets must be >= 0" in err


def test_unreadable_indices_exit_2(capsys):
    # an index of over 4,300 digits, and a digit outside 0-9, are parse
    # errors, not a traceback
    long = f"a({'9' * 5000},1,2)"
    for argv in (
        ["classify", "--n", "4", long],
        ["equal", "--n", "4", long, "a123"],
        ["classify", "--n", "4", "a(\u0661,2,3)"],
        ["equal", "--n", "4", "a123", "a\u066123"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and err.startswith("error: ") and len(err) < 100, argv


def test_parse_errors_echo_a_bounded_prefix(capsys):
    # a 4,000-digit index reads as an int, and a 4,000-digit token is no
    # generator; each message echoes 40 characters of it and "..."
    for text in (f"a({'9' * 4000},1,2)", f"b{'9' * 4000}"):
        code, out, err = run(capsys, ["classify", "--n", "4", text])
        assert code == 2 and out == "" and err.startswith("error: ") and "9..." in err
        assert err.count("\n") == 1 and len(err.encode()) < 200


def test_parity_output(capsys):
    code, out, _ = run(capsys, ["parity", "--n", "4", "a123 a124 a123"])
    assert code == 0 and out.strip() == "a124"
    code, out, _ = run(capsys, ["parity", "--n", "4", "a123 a123"])
    assert code == 0 and out.strip() == "(all even)"


def test_census_square(capsys):
    code, out, _ = run(capsys, ["census", "--lemma", "square", "--n", "4"])
    assert code == 0
    assert "census lemma=square n=4 cases=64 violations=0" in out


def test_census_full_table(capsys):
    code, out, _ = run(capsys, ["census", "--lemma", "square", "--n", "4", "--full"])
    assert code == 0
    assert len(out.strip().splitlines()) == 65
    assert out == relation_census(4, "square").to_table(full=True) + "\n"


def test_census_negative_samples_exit_2(capsys):
    code, out, err = run(capsys, ["census", "--lemma", "commute", "--n", "6", "--samples", "-5"])
    assert code == 2 and out == ""
    assert err == "error: census samples must be >= 0, got -5\n"


def test_reconstruct_word_and_invariants(capsys):
    word_text = format_word(compile_program(pure_braid_generator_program(4, 1, 3)).word)
    code, out, _ = run(capsys, ["reconstruct", "--n", "4", "--axis", "4", word_text])
    assert code == 0
    assert all(tok.startswith("b(") for tok in out.split())
    code, out, _ = run(
        capsys, ["reconstruct", "--n", "4", "--axis", "4", "--invariants", word_text]
    )
    assert code == 0
    assert "permutation: ()" in out
    # one swap of rays 2 and 3 around axis 1: a 2-cycle and half a linking
    code, out, _ = run(capsys, ["reconstruct", "--n", "4", "--axis", "1", "--invariants", "a123"])
    assert code == 0
    assert out.splitlines()[1:] == [
        "permutation: (2 3)",
        "linking:",
        "          2     3     4",
        "    2     .  -1/2     0",
        "    3  -1/2     .     0",
        "    4     0     0     .",
    ]


def test_reconstruct_not_realisable_exits_1(capsys):
    code, _, err = run(capsys, ["reconstruct", "--n", "4", "--axis", "4", "a134 a123"])
    assert code == 1 and "realisable" in err


def test_gen_braid_and_embed(capsys, tmp_path):
    code, out, _ = run(capsys, ["gen", "--braid", "1,3", "--n", "4"])
    assert code == 0
    prog = program_from_json(json.loads(out))
    assert prog.n == 4 and prog.closed
    path = tmp_path / "braid.json"
    path.write_text(out.strip())
    code, out, _ = run(capsys, ["gen", "--embed", str(path)])
    assert code == 0
    assert program_from_json(json.loads(out)).n == 5
    code, out, err = run(capsys, ["gen", "--braid", "1,2"])
    assert (code, out, err) == (2, "", "error: --braid requires --n\n")
    code, out, err = run(capsys, ["gen", "--braid", "1;2", "--n", "4"])
    assert (code, out, err) == (2, "", "error: --braid expects 'i,j', got '1;2'\n")


def test_gen_above_the_n_ceiling_exits_2_before_building(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a program was built above the ceiling")

    monkeypatch.setattr(tribraid.cli, "pure_braid_generator_program", refuse)
    monkeypatch.setattr(tribraid.cli, "full_twist_program", refuse)
    ceiling = tribraid.cli.MAX_GEN_N
    for n in (ceiling + 1, 10**9):
        for flag, value in (("--braid", "1,2"), ("--full-twist", "1")):
            code, out, err = run(capsys, ["gen", flag, value, "--n", str(n)])
            assert code == 2 and out == ""
            assert err == f"error: --n {n} is above the gen ceiling of {ceiling} strands\n"


def test_gen_at_the_n_ceiling_builds(capsys, monkeypatch):
    monkeypatch.setattr(tribraid.cli, "MAX_GEN_N", 5)
    for flag, value in (("--braid", "1,2"), ("--full-twist", "1")):
        code, out, _ = run(capsys, ["gen", flag, value, "--n", "5"])
        assert code == 0 and program_from_json(json.loads(out)).n == 5
        assert run(capsys, ["gen", flag, value, "--n", "6"])[0] == 2


def test_programs_above_the_n_ceiling_exit_2_before_building(capsys, monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("a program was built above the ceiling")

    for name in ("program_from_json", "compile_program", "embed_at_infinity"):
        monkeypatch.setattr(tribraid.cli, name, refuse)
    ceiling = tribraid.cli.MAX_GEN_N
    path = tmp_path / "big.json"
    for n in (ceiling + 1, 10**9):
        path.write_text(json.dumps({"n": n, "initial": []}))
        for argv in (["compile", str(path)], ["gen", "--embed", str(path)]):
            code, out, err = run(capsys, argv)
            assert code == 2 and out == ""
            assert err == f"error: the program has {n} strands, above the ceiling of {ceiling}\n"


def test_programs_at_the_n_ceiling_load(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(tribraid.cli, "MAX_GEN_N", 5)
    for n, expected in ((5, 0), (6, 2)):
        path = tmp_path / f"{n}.json"
        path.write_text(json.dumps(program_to_json(pure_braid_generator_program(n, 1, 2))))
        assert run(capsys, ["compile", str(path)])[0] == expected
        assert run(capsys, ["gen", "--embed", str(path)])[0] == expected


def test_program_with_an_infinite_number_exits_2(capsys, tmp_path):
    good = program_to_json(pure_braid_generator_program(4, 1, 3))
    path = tmp_path / "bad.json"
    for bad in (
        dict(good, n=float("inf")),
        dict(good, moves=[{"type": "line", "strand": float("inf"), "to": ["0", "0"]}]),
        dict(good, moves=[{"type": "twist", "turns": float("-inf")}]),
        # and a field that is not a JSON integer (or, for closed, a JSON
        # boolean) is refused, not truncated, above the ceiling or not
        dict(good, n=4.2),
        dict(good, n="4"),
        dict(good, n=float(tribraid.cli.MAX_GEN_N + 1)),
        dict(good, moves=[dict(good["moves"][0], strand=1.9)]),
        dict(good, moves=[{"type": "twist", "turns": 1.5}]),
        dict(good, moves=[{"type": "twist", "turns": True}]),
        dict(good, closed="no"),
    ):
        path.write_text(json.dumps(bad))  # as Infinity, which json reads back
        for argv in (["compile", str(path)], ["gen", "--embed", str(path)]):
            code, out, err = run(capsys, argv)
            assert code == 2 and out == "" and err.startswith("error: "), (bad, argv)


def test_program_numbers_are_read_from_their_decimal_text(capsys, tmp_path):
    # as binary floats, 0.30000000000000000001 is 3/10 and 1e-400 is 0, which
    # puts strands 1, 3 and 4 on one line
    path = tmp_path / "exact.json"
    path.write_text(
        '{"n": 4, "initial": [[0, 0], [1, 0.30000000000000000001], [1e-400, 2], [0, 1]]}'
    )
    assert run(capsys, ["compile", str(path)])[:2] == (0, "\n")
    code, out, _ = run(capsys, ["gen", "--embed", str(path)])
    initial = [[Fraction(x) for x in point] for point in json.loads(out)["initial"]]
    assert code == 0
    assert initial[1:3] == [[1, Fraction(30000000000000000001, 10**20)], [Fraction(1, 10**400), 2]]


def test_program_numbers_without_an_exact_reading_exit_2(capsys, tmp_path):
    good = program_to_json(pure_braid_generator_program(4, 1, 3))
    path = tmp_path / "bad.json"
    cases = [
        (dict(good, n="@"), ("4.0", "4e0", "1" + "0" * 5000)),
        (dict(good, moves=[dict(good["moves"][0], strand="@")]), ("1.0",)),
        (dict(good, moves=[{"type": "twist", "turns": "@"}]), ("1.0",)),
        # a power of ten beyond 4300 digits, written as a number or a string
        (
            dict(good, initial=[["@", "1"], *good["initial"][1:]]),
            ("NaN", "-Infinity", "1e-999999999", "1e5000", '"1e5000"', '"1e-5000"'),
        ),
    ]
    for obj, numbers in cases:
        for number in numbers:
            path.write_text(json.dumps(obj).replace('"@"', number))
            for argv in (["compile", str(path)], ["gen", "--embed", str(path)]):
                code, out, err = run(capsys, argv)
                assert code == 2 and out == "" and err.startswith("error: "), (number, argv)


@pytest.fixture
def refuse_to_build(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a command read or built something above its ceiling")

    builders = (
        "parse_word",
        "classify_word",
        "project_once",
        "stable_projection",
        "reconstruct_axis",
        "generator_parity",
        "bounded_equal",
        "relation_census",
    )
    for name in builders:
        monkeypatch.setattr(tribraid.cli, name, refuse)
    monkeypatch.setattr("sys.stdin", type("Unread", (), {"read": refuse})())


def _size_commands():
    cli = tribraid.cli
    return [
        (["classify", "-"], cli.MAX_WORD_N),
        (["project", "--stable", "-"], cli.MAX_WORD_N),
        (["reconstruct", "--axis", "1", "-"], cli.MAX_WORD_N),
        (["parity", "-"], cli.MAX_WORD_N),
        (["equal", "a(1,2,3)", "a(1,2,4)"], cli.MAX_EQUAL_N),
        (["census", "--lemma", "commute", "--samples", "0"], cli.MAX_CENSUS_N),
    ]


def test_size_arguments_above_their_ceilings_exit_2_before_building(capsys, refuse_to_build):
    for argv, ceiling in _size_commands():
        for n in (ceiling + 1, 10**9):
            code, out, err = run(capsys, [*argv, "--n", str(n)])
            assert code == 2 and out == ""
            assert err == f"error: --n {n} is above the {argv[0]} ceiling of {ceiling} strands\n"
    # the default 512 samples of 2,730 far-commuting pairs at n=9
    code, out, err = run(capsys, ["census", "--lemma", "commute", "--n", "9"])
    assert code == 2 and out == ""
    assert err == (
        "error: --samples 512 at n=9 gives 1,397,760 rows, above the census ceiling of 600,000\n"
    )


def test_size_arguments_at_their_ceilings_run(capsys, monkeypatch):
    for name in ("MAX_WORD_N", "MAX_EQUAL_N", "MAX_CENSUS_N"):
        monkeypatch.setattr(tribraid.cli, name, 6)
    for argv, _ in _size_commands():
        argv = [a if a != "-" else "a(1,2,3)" for a in argv]
        assert run(capsys, [*argv, "--n", "6"])[0] == 0
        assert run(capsys, [*argv, "--n", "7"])[0] == 2
    # a commute census at n=6 has 100 rows per sample, and n=5 reads all 1,024 states
    monkeypatch.setattr(tribraid.cli, "MAX_CENSUS_ROWS", 300)
    census = ["census", "--lemma", "commute", "--n"]
    assert run(capsys, [*census, "6", "--samples", "3"])[0] == 0
    assert run(capsys, [*census, "6", "--samples", "4"])[0] == 2
    assert run(capsys, [*census, "5"])[0] == 2
    monkeypatch.setattr(tribraid.cli, "MAX_CENSUS_ROWS", 1024 * 15)
    assert run(capsys, [*census, "5"])[0] == 0


def test_word_parse_error_exits_2(capsys):
    code, _, err = run(capsys, ["classify", "--n", "4", "a12x"])
    assert code == 2 and "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "-"],
        ["project", "--stable", "-"],
        ["reconstruct", "--axis", "1", "-"],
        ["parity", "-"],
        ["equal", "", ""],
    ],
)
def test_a_bad_n_exits_2_even_for_the_empty_word(capsys, monkeypatch, argv):
    for stdin in ("\n", "a123"):
        code, out, err = run(capsys, [*argv, "--n", "3"], stdin, monkeypatch)
        assert (code, out, err) == (2, "", "error: strand count must be >= 4, got 3\n")


def test_usage_error_exits_2(capsys):
    assert run(capsys, ["frobnicate"])[0] == 2
    assert run(capsys, [])[0] == 2


def test_selftest(capsys):
    code, out, _ = run(capsys, ["selftest"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)


@pytest.mark.parametrize(
    "drift",
    [
        lambda e: dataclasses.replace(e, t=e.t / 2),
        lambda e: dataclasses.replace(e, central=min(set(e.triple.elems) - {e.central})),
    ],
    ids=["time", "central"],
)
def test_selftest_catches_a_drifted_event_kernel(capsys, monkeypatch, drift):
    exact = tribraid.geometry.segment_events
    monkeypatch.setattr(
        tribraid.geometry, "segment_events", lambda *a, **k: [drift(e) for e in exact(*a, **k)]
    )
    code, out, _ = run(capsys, ["selftest"])
    assert code == 1 and "FAIL collinearity events against orientation and dot" in out.splitlines()


@pytest.mark.parametrize(
    "drift",
    [
        lambda v: tribraid.KernelVerdict(tribraid.TRIVIAL_CONSISTENT),
        lambda v: dataclasses.replace(v, axis=(v.axis or 0) + 1),
    ],
    ids=["kind", "axis"],
)
def test_selftest_catches_a_drifted_kernel_witness(capsys, monkeypatch, drift):
    exact = tribraid.reconstruction.kernel_witness
    monkeypatch.setattr(tribraid.reconstruction, "kernel_witness", lambda w: drift(exact(w)))
    code, out, _ = run(capsys, ["selftest"])
    assert code == 1 and "FAIL kernel witness against per-axis invariants" in out.splitlines()


def test_selftest_catches_a_drifted_row_kernel(capsys, monkeypatch):
    # the j rule of the letter kernel with G1 and G2 swapped
    exact = tribraid.index_state._central

    def drifted(ij, ik, jk, full, i, j, k):
        u = full ^ (1 << i | 1 << j | 1 << k)
        g1, g2 = (1 << j) - (2 << i), (1 << k) - (2 << j)
        if (ij ^ ik) & u == g1 and (ik ^ jk) & u == g2:
            return j
        central = exact(ij, ik, jk, full, i, j, k)
        return 0 if central == j else central

    monkeypatch.setattr(tribraid.index_state, "_central", drifted)
    code, out, _ = run(capsys, ["selftest"])
    lines = out.splitlines()
    assert code == 1 and lines[0].startswith("FAIL sliced census kernel against letter_status")


def table_kernel(tables):
    """A census kernel with `_sliced_centrals`' signature that reads each
    outside strand's entry from `tables` (four gap tables, as `GAP_TABLES`)
    by `bytes.translate` and ANDs the entries."""
    padded = [bytes(table) + bytes(256 - len(table)) for table in tables]

    def kernel(ranks, cols, size, n, i, j, k):
        first, second = ranks
        acc = 7 * int.from_bytes(b"\1" * size, "little")
        for p in set(range(1, n + 1)) - {i, j, k}:
            triples = (sorted(pair + (p,)) for pair in ((i, j), (i, k), (j, k)))
            keys = sum(cols[first[a] - second[b] + c] << bit for bit, (a, b, c) in enumerate(triples))
            table = padded[sum(e < p for e in (i, j, k))]
            acc &= int.from_bytes(keys.to_bytes(size, "little").translate(table), "little")
        return acc

    return kernel


def test_table_kernel_is_the_census_kernel():
    # the unchanged gap tables give the census kernel's bytes, so the test
    # below changes one entry and nothing else
    ranks = tribraid.generator_ranks(5)
    cols = _columns(range(2**10), 10)
    kernel = table_kernel(GAP_TABLES)
    for i, j, k in ((1, 2, 3), (1, 3, 5), (2, 4, 5), (3, 4, 5)):
        args = (ranks, cols, 2**10, 5, i, j, k)
        assert kernel(*args) == tribraid.index_state._sliced_centrals(*args)


@pytest.mark.parametrize("gap, key, value", [(0, 1, 0), (3, 6, 2), (1, 3, 4), (2, 4, 5)])
def test_selftest_catches_a_changed_gap_table_entry(capsys, monkeypatch, gap, key, value):
    # the census kernel read from the gap tables with one entry changed; a
    # two-bit entry (5) makes the census rendering raise, which fails the
    # check too
    tables = [list(table) for table in GAP_TABLES]
    assert tables[gap][key] != value
    tables[gap][key] = value
    monkeypatch.setattr(tribraid.index_state, "_sliced_centrals", table_kernel(tables))
    code, out, _ = run(capsys, ["selftest"])
    lines = out.splitlines()
    assert code == 1 and lines[0].startswith("FAIL sliced census kernel against letter_status")
    # the census check may fail too; the checks after it still run and pass
    assert len(lines) == 11 and all(line.startswith("PASS") for line in lines[2:])


def test_selftest_catches_a_drifted_census_kernel(capsys, monkeypatch):
    # the census kernel with j's G1 and G2 targets swapped: j's lane now
    # needs (1,0) between i and j and (0,1) between j and k, and the i and
    # k lanes are the exact kernel's.  The tetra
    # census then has count-3 windows, so the census check fails too; the
    # checks after it still run and pass
    exact = tribraid.index_state._sliced_centrals

    def drifted(ranks, cols, size, n, i, j, k):
        first, second = ranks
        ones = int.from_bytes(b"\1" * size, "little")
        miss = 0
        for p in set(range(1, n + 1)) - {i, j, k}:
            ij, ik, jk = (sorted(pair + (p,)) for pair in ((i, j), (i, k), (j, k)))
            ij, ik, jk = (cols[first[a] - second[b] + c] for a, b, c in (ij, ik, jk))
            tx, ty = (1, 0) if i < p < j else (0, 1) if j < p < k else (0, 0)
            miss |= ij ^ ik ^ tx * ones | ik ^ jk ^ ty * ones
        return exact(ranks, cols, size, n, i, j, k) & 5 * ones | (ones ^ miss) << 1

    monkeypatch.setattr(tribraid.index_state, "_sliced_centrals", drifted)
    code, out, _ = run(capsys, ["selftest"])
    lines = out.splitlines()
    assert code == 1 and lines[0].startswith("FAIL sliced census kernel against letter_status")
    assert lines[1] == "FAIL relation censuses"
    assert len(lines) == 11 and all(line.startswith("PASS") for line in lines[2:])


def test_interleaved_subcommands_give_the_same_output(capsys, tmp_path):
    # main parses with one parser per process: no flag or default may carry
    # over from one call to the next
    prog = tmp_path / "b13.json"
    prog.write_text(json.dumps(program_to_json(pure_braid_generator_program(4, 1, 3))))
    commands = [
        ["census", "--lemma", "square", "--n", "4", "--full"],
        ["gen", "--braid", "1,3", "--n", "4"],
        ["compile", str(prog), "--events"],
        ["census", "--lemma", "square", "--n", "4"],
        ["gen", "--full-twist", "1", "--n", "4"],
        ["compile", str(prog)],
        ["classify", "--n", "4", "a134 a123"],
        ["project", "--stable", "--n", "4", "a134 a123"],
        ["project", "--n", "4", "a134 a123 a123"],
        ["frobnicate"],
        ["equal", "--n", "4", "--depth", "10", "--max-len", "4", "a123 a124", "a124 a123"],
        ["equal", "--n", "4", "a123", "a123"],
    ]
    first = [run(capsys, argv) for argv in commands]
    again = [run(capsys, argv) for argv in reversed(commands)][::-1]
    assert first == again
    assert first[0][1] != first[3][1] and first[2][1] != first[5][1]


def test_fresh_import_releases_the_old_modules():
    # re-importing inside this process would give later tests new classes,
    # so the check runs in a child interpreter
    script = """
import gc, importlib, sys, weakref
import tribraid, tribraid.cli
refs = [weakref.ref(tribraid.cli.main), weakref.ref(tribraid.geometry.compile_program),
        weakref.ref(tribraid.index_state.classify_word)]
tribraid.cli.main(["gen", "--braid", "1,3", "--n", "4"])
del tribraid
for name in [m for m in sys.modules if m == "tribraid" or m.startswith("tribraid.")]:
    del sys.modules[name]
importlib.import_module("tribraid")
importlib.import_module("tribraid.cli")
gc.collect()
print("alive:", [r() is not None for r in refs])
"""
    src = str(Path(tribraid.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "alive: [False, False, False]"


def test_export_list_is_what_the_package_binds():
    # a stale entry would make `from tribraid import *` raise
    tree = ast.parse(Path(tribraid.__file__).read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    public = {name for name in bound if not name.startswith("_")}
    assert len(tribraid.__all__) == len(public) and set(tribraid.__all__) == public
    namespace = {}
    exec("from tribraid import *", namespace)
    assert public <= namespace.keys()


def test_no_module_imports_a_private_name_of_a_sibling():
    # a module's underscore names are its own layout: a sibling that needs
    # one should get a public function instead
    package = Path(tribraid.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "tribraid"
            ):
                found += [
                    (path.name, node.module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert found == []


def test_per_process_caches_are_the_known_four():
    # a cache lives as long as the process: a per-n table kept in one grows
    # with every n a caller reads, so it must be listed here on purpose
    package = Path(tribraid.__file__).resolve().parent

    def is_cache(node):
        if isinstance(node, ast.Call):
            node = node.func
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        return name in ("cache", "lru_cache")

    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(map(is_cache, node.decorator_list)):
                    found.add(node.name)
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                if is_cache(node.value.func):
                    found.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert found == {"_generators", "_status", "_tetra_windows", "build_parser"}


def _classify_at_500():
    n = 500
    rng = random.Random(5)
    letters = (GenTriple(n, tuple(rng.sample(range(1, n + 1), 3))) for _ in range(200))
    classify_word(GWord(n, tuple(letters)))


def _search_with_an_insertion():
    n = 100
    abc = [GenTriple(n, t) for t in ((1, 2, 3), (4, 5, 6), (7, 8, 9))]
    twice = [GenTriple(n, (1, 5, 9))] * 2
    bounded_equal(GWord(n, abc), GWord(n, twice + abc), 1, 5)


@pytest.mark.parametrize("call", [_classify_at_500, _search_with_an_insertion])
def test_calls_keep_no_table_once_they_return(call):
    # a table over the C(n,3) triples is 7.4 MiB at n=500 for classifying,
    # and a search with room for an insertion has 161,700 generators at
    # n=100 to insert; once the call returns, nothing of that size may
    # stay allocated
    tracemalloc.start()
    try:
        call()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 64 * 1024


def test_only_the_trusted_configuration_bypasses_a_constructor():
    # object.__new__ skips a class's own checks: one builder, for points
    # already known generic, may do that, and nothing else in the package
    package = Path(tribraid.__file__).resolve().parent
    found = []

    def visit(node, path, scope):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "__new__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "object"
        ):
            found.append((path.name, scope))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, path, scope)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, None)
    assert found == [("geometry.py", "_trusted_configuration")]
