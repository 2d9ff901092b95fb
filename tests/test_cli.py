import ast
import dataclasses
import gc
import hashlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

import tribraid
from tribraid import (
    GenTriple,
    GWord,
    MoveKind,
    OrientationState,
    RelationMove,
    all_generators,
    applicable_moves,
    apply_move,
    bounded_equal,
    classify_word,
    compile_program,
    format_word,
    full_twist_program,
    letter_status,
    program_from_json,
    program_to_json,
    pure_braid_generator_program,
    relation_census,
)
from tribraid.cli import main
from tribraid.errors import (
    BadTriple,
    DimensionMismatch,
    InvalidBudget,
    InvalidMove,
    InvalidN,
    NotRealisable,
    TribraidError,
    WordParseError,
)
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


@pytest.mark.parametrize(
    "argv",
    [
        ["--depth", "1000", "--max-len", "8", "a123 a124 a134 a234", "a234 a134 a124 a123"],
        ["--max-len", "6", "a123 a123 a124", "a124 a134 a134"],
        ["a123", "a123"],
        ["a123", "a124"],
        ["--depth", "10", "--max-len", "4", "a123 a124", "a124 a123"],
    ],
    ids=["equal", "equal-2-moves", "identical", "distinct", "unknown"],
)
def test_equal_json_matches_the_text_output(capsys, argv):
    code, text, _ = run(capsys, ["equal", "--n", "4", "--stats", *argv])
    json_code, out, _ = run(capsys, ["equal", "--n", "4", "--json", *argv])
    assert code == json_code == 0
    obj = json.loads(out)  # one object: trailing text would not load
    assert list(obj) == ["status", "path", "witness", "stats"]
    verdict, stats = text.splitlines()
    assert stats == "stats: " + " ".join(f"{k}={v}" for k, v in obj["stats"].items())
    assert list(obj["stats"]) == ["expanded", "stored", "peak_frontier", "stop"]
    path, witness = obj["path"], obj["witness"]
    if obj["status"] == "equal":
        moves = f"equal ({len(path)} moves)"
        assert witness is None and verdict == (f"{moves}: {' '.join(path)}" if path else moves)
    elif obj["status"] == "distinct":
        assert path is None and verdict == f"distinct: {witness}"
    else:
        assert obj["status"] == "unknown" and path is witness is None
        assert verdict.startswith("unknown (")


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


# 10**5000 has over 4,300 digits, so Python will not print it
HUGE = 10**5000


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: GWord(4, HUGE), BadTriple),
        (lambda: GWord(4, (HUGE,)), BadTriple),
        (lambda: GWord(4, ("x" * 10**6,)), BadTriple),
        (lambda: GenTriple(4, (1, 2, HUGE)), BadTriple),
        (lambda: tribraid.CylLetter(HUGE, HUGE, 1), BadTriple),
        (lambda: tribraid.CylWord(4, 1, HUGE), BadTriple),
        (lambda: tribraid.initial_cyclic_order(4, HUGE), BadTriple),
        (lambda: tribraid.LetterStatus(-HUGE), BadTriple),
        (lambda: tribraid.Configuration(HUGE, ()), DimensionMismatch),
        (lambda: tribraid.generator_ranks(-HUGE), InvalidN),
        (lambda: all_generators(-HUGE), InvalidN),
        (lambda: tribraid.enumerate_states(-HUGE), InvalidN),
        (lambda: tribraid.regular_rational_configuration(-HUGE), InvalidN),
        (lambda: tribraid.parse_word("a123", -HUGE), WordParseError),
        (lambda: relation_census(6, "commute", samples=-HUGE), InvalidBudget),
        (lambda: bounded_equal(GWord(4), GWord(4), -HUGE, 1), InvalidBudget),
        *(
            (lambda kind=kind: apply_move(GWord(4), RelationMove(kind, HUGE)), InvalidMove)
            for kind in MoveKind
        ),
        # 5,000 bad letters, whose positions the message lists
        (
            lambda: tribraid.reconstruct_axis(tribraid.parse_word("a134 a123 " * 5000, 4), 1),
            NotRealisable,
        ),
    ],
)
def test_oversized_values_get_typed_short_errors(call, error):
    # a message echoes at most 40 characters of a value, and an int too
    # long to print by its bit length
    with pytest.raises(error) as caught:
        call()
    assert len(str(caught.value)) < 200


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


def test_readme_pipeline_pinned(capsys, monkeypatch):
    # `gen --braid i,j` -> `compile -` -> `reconstruct --invariants -` for
    # every ordered pair at n=6 and n=8, around the first other strand: one
    # SHA-256 over the three outputs of each pipeline, in pair order
    h = hashlib.sha256()
    for n in (6, 8):
        for i, j in permutations(range(1, n + 1), 2):
            axis = min(k for k in range(1, n + 1) if k not in (i, j))
            _, program, _ = run(capsys, ["gen", "--braid", f"{i},{j}", "--n", str(n)])
            _, letters, _ = run(capsys, ["compile", "-"], program, monkeypatch)
            argv = ["reconstruct", "--n", str(n), "--axis", str(axis), "--invariants", "-"]
            code, table, _ = run(capsys, argv, letters, monkeypatch)
            assert code == 0
            for out in (program, letters, table):
                h.update(out.encode())
    assert h.hexdigest() == "561bd0fc9bc261928843923da809ebf3c22c36f6717934202a071f2e723a8d85"


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


def test_program_moves_that_are_not_a_list_exit_2(capsys, tmp_path):
    # a number or null is not iterable, and an object would be read as no
    # moves: each is refused with one line, not a traceback
    good = program_to_json(pure_braid_generator_program(4, 1, 3))
    path = tmp_path / "bad.json"
    for moves in (5, None, {}, {"type": "twist", "turns": 1}, "line"):
        path.write_text(json.dumps(dict(good, moves=moves)))
        for argv in (["compile", str(path)], ["gen", "--embed", str(path)]):
            code, out, err = run(capsys, argv)
            assert (code, out) == (2, ""), (moves, argv)
            assert err.startswith("error: ") and err.count("\n") == 1, (moves, argv)
            assert "'moves' must be a list" in err


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


def test_values_too_long_to_print_exit_2(capsys, tmp_path):
    # Python prints no int of over 4,300 digits.  1e-4300 reads, but its
    # denominator has 4,301: such a coordinate is refused at load
    good = program_to_json(full_twist_program(4, 1))
    there_and_back = [["-3", "@"], good["initial"][0]]
    path = tmp_path / "long.json"
    for coordinate in ("1e-4300", "0." + "0" * 4299 + "1"):
        for obj in (
            dict(good, initial=[["0", coordinate], *good["initial"][1:]], moves=[]),
            dict(good, moves=[{"type": "line", "strand": 1, "to": to} for to in there_and_back]),
        ):
            path.write_text(json.dumps(obj).replace("@", coordinate))
            for argv in (["compile", str(path)], ["compile", "--events", str(path)]):
                code, out, err = run(capsys, argv)
                assert (code, out) == (2, ""), (coordinate, argv)
                assert err.startswith("error: ") and err.count("\n") == 1
                assert "more digits than Python prints" in err
            assert run(capsys, ["gen", "--embed", str(path)])[:2] == (2, "")
    # printable values whose sum, or event time, is not: two twists of a
    # 4,300-digit turn count, and a move to a y of 1/(9*10^4299 + 7)
    for obj in (
        dict(good, moves=[{"type": "twist", "turns": int("9" * 4300)}] * 2),
        dict(good, moves=[{"type": "line", "strand": 1, "to": to} for to in there_and_back]),
    ):
        path.write_text(json.dumps(obj).replace("@", f"1/{9 * 10**4299 + 7}"))
        assert run(capsys, ["compile", str(path)])[0] == 0
        assert run(capsys, ["compile", "--events", str(path)]) == (
            2,
            "",
            "error: an event time or turn count has more digits than Python prints\n",
        )


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
    # 4,300 digits parse as an int, but their row count has too many to print
    argv = ["census", "--lemma", "commute", "--n", "6", "--samples", "9" * 4300]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and "<int of" in err and len(err) < 200


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


def test_selftest_catches_a_path_step_one_position_off(capsys, monkeypatch):
    # a deletion named one position late still replays inside a run of
    # three, so only the path's text shows it
    exact = tribraid.group_core._move

    def late(*args):
        m = exact(*args)
        return dataclasses.replace(m, position=m.position + (m.kind is MoveKind.SQUARE_DELETE))

    monkeypatch.setattr(tribraid.group_core, "_move", late)
    code, out, _ = run(capsys, ["selftest"])
    lines = out.splitlines()
    assert code == 1 and [line for line in lines if not line.startswith("PASS ")] == [
        "FAIL bounded equality"
    ]
    assert len(lines) == 11


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


# plain result records, whose constructors keep what they are given
RESULT_RECORDS = {
    "AnnularInvariants",
    "CensusReport",
    "CensusRow",
    "ClassifiedWord",
    "CollinearityEvent",
    "CompileOutput",
    "EqualityVerdict",
    "KernelVerdict",
    "ParityVector",
    "RelationMove",
    "SearchStats",
}


def test_every_export_refuses_a_foreign_object_with_a_typed_error():
    # a float coordinate stays a TypeError, and an enum's lookup its own
    # ValueError
    exempt = RESULT_RECORDS | {"RationalPoint", "MoveKind"}
    assert exempt <= set(tribraid.__all__)
    called = []
    for name in tribraid.__all__:
        obj = getattr(tribraid, name)
        if name in exempt or not callable(obj):
            continue
        if isinstance(obj, type) and issubclass(obj, Exception):
            continue
        params = inspect.signature(obj).parameters.values()
        required = [p for p in params if p.default is p.empty]
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in required), name
        with pytest.raises(TribraidError):
            obj(*(object() for _ in required))
        called.append(name)
    assert {"MoveProgram", "compile_program", "classify_word", "reconstruct_axis"} <= set(called)


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


def test_state_and_geometry_layers_read_only_errors_and_group_core():
    # index_state and geometry are two layers over group_core: neither
    # reads the other, so either changes alone
    package = Path(tribraid.__file__).resolve().parent
    for name in ("geometry", "index_state"):
        tree = ast.parse((package / f"{name}.py").read_text())
        found = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules = ["." * node.level + (node.module or "")]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            found.update(m for m in modules if m.startswith((".", "tribraid")))
        assert found == {".errors", ".group_core"}, name


def test_per_process_caches_are_the_known_three():
    # a cache lives as long as the process: a per-n table kept in one grows
    # with every n a caller reads, so it must be listed here on purpose.
    # These three keep a few objects each: one status per central, the n=4
    # tetra windows and the parser
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
    assert found == {"_status", "_tetra_windows", "build_parser"}


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


def _insertions_listed_at_40():
    # (3+1) * C(40,3) = 39,520 square insertions, whose 9,880 generators
    # are built for the call; the list of moves is dropped on return
    n = 40
    abc = GWord(n, tuple(GenTriple(n, t) for t in ((1, 2, 3), (4, 5, 6), (7, 8, 9))))
    moves = applicable_moves(abc, allow_insert=True, max_len=5)
    assert sum(m.kind is MoveKind.SQUARE_INSERT for m in moves) == 39_520


def _generators_listed_at_100():
    assert len(all_generators(100)) == 161_700


# a state that outlives every call below, as a caller's state does
_HELD_300 = OrientationState(300, 0b1011)


def _letter_read_at_a_held_state():
    letter_status(_HELD_300, GenTriple(300, (1, 2, 5)))


@pytest.mark.parametrize(
    "call",
    [
        _classify_at_500,
        _search_with_an_insertion,
        _insertions_listed_at_40,
        _generators_listed_at_100,
        _letter_read_at_a_held_state,
    ],
)
def test_calls_keep_no_table_once_they_return(call):
    # a table over the C(n,3) triples is 7.4 MiB at n=500 for classifying
    # and 4.25 MiB at n=300 for one letter, a search with room for an
    # insertion has 161,700 generators at n=100 to insert, and listing
    # insertions 9,880 at n=40; once the call returns, nothing of that size
    # may stay allocated.  The full collection empties CPython's free
    # lists, which keep up to 2,000 freed tuples (125 KiB) and are no table
    tracemalloc.start()
    try:
        call()
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 64 * 1024


def test_a_state_holds_only_its_mask():
    # a read caches nothing on the state, however often it is repeated
    s = OrientationState(6, 0b1011)
    s.value((1, 2, 4))
    letter_status(s, GenTriple(6, (1, 2, 5)))
    classify_word(GWord(6, (GenTriple(6, (2, 3, 4)),)), start=s)
    assert vars(s) == {"n": 6, "minus": 0b1011}


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
