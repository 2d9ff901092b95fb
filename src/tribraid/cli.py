"""Command-line front end.

Words cross the boundary as text (``-`` reads standard input), programs as
JSON files; every output is deterministic.  Exit codes: 0 success, 1 domain
or validation error, 2 parse or usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from decimal import Decimal
from itertools import islice

from .errors import (
    AboveCeiling,
    InvalidBudget,
    ProgramParseError,
    TribraidError,
    WordParseError,
    clip,
)
from .geometry import (
    compile_program,
    embed_at_infinity,
    full_twist_program,
    program_from_json,
    program_to_json,
    pure_braid_generator_program,
)
from .group_core import (
    MAX_STORED_LETTERS,
    GenTriple,
    GWord,
    bounded_equal,
    format_word,
    generator_parity,
    parse_word,
)
from .index_state import (
    classify_word,
    commute_census_rows,
    project_once,
    relation_census,
    stable_projection,
)
from .reconstruction import (
    annular_invariants,
    empty_cyl_word,
    invariants_equal_mod_full_twist,
    reconstruct_axis,
)


# Ceilings on the size arguments, checked before anything is read or built
# (exit 2), from growth measured in one process on a shared 2-core machine,
# Python 3.11.  Classifying keeps the pair rows a word touches and one bit per
# triple, C(n,3)/8 bytes (2.6 MB at n = 500).  As commands, 200 random letters
# take 0.11 s and 19 MiB to classify at n = 250 and 0.14-0.19 s and 32 MiB at
# n = 500 (0.3-0.47 s and 109 MiB at n = 1000), with 0.11 s and 17 MiB of
# that the interpreter and its imports; `project --stable` takes 0.17-0.18 s
# and 31 MiB at n = 500.  The costliest is `reconstruct --invariants`, whose
# table has (n-1)^2 cells: 0.30 s and 26 MiB at n = 250, 0.92-0.94 s and
# 54 MiB at n = 500 for a realisable 200-letter word.
MAX_WORD_N = 500
# An `equal` expansion keeps its (length + 1) * C(n,3) square insertions as
# one block, not as words: a two-letter search with --max-len 12 counts
# 1,323,401 words to the letter limit in 0.11-0.16 s and 17.6 MiB as a
# command at n = 100, and 1,500,002 in 0.10-0.14 s and 17.3 MiB in one
# process at n = 150.  Words stored one by one cost the most: a random
# 10-letter word against its reverse with --max-len 10 stores 600,001 in
# 7-11 s and 106 MiB at n = 100 (see MAX_STORED_LETTERS).
MAX_EQUAL_N = 100
# A commute census with states reads every far-commuting pair, whatever its
# sample count: one sample at n = 14 (60,060 pairs) takes 0.48-0.50 s and
# 37 MiB as a command, and 1.1-1.3 s and 66 MiB at n = 16 in one process.
# With no samples it reads nothing: 0.07-0.09 s and 16 MiB as a command at
# n = 14.
MAX_CENSUS_N = 14
# It keeps a few bytes per pair and state, renders rows only when they are
# read and writes them a block at a time: 9 samples at n = 14 (540,540
# rows) take 0.62-0.70 s and 39 MiB as a command, and 2.1 s and 41 MiB
# with --full, so the ceiling bounds the columns kept and the time taken.
MAX_CENSUS_ROWS = 600_000


def _strands(args, ceiling: int) -> int:
    """--n, refused above the command's ceiling."""
    if args.n > ceiling:
        raise AboveCeiling(
            f"--n {args.n} is above the {args.subcommand} ceiling of {ceiling} strands"
        )
    return args.n


def _read_word(args) -> GWord:
    n = _strands(args, MAX_WORD_N)
    text = sys.stdin.read() if args.word == "-" else args.word
    return parse_word(text, n)


def _load_program(path: str):
    # a JSON number with a fraction or an exponent stays its decimal text, a
    # Decimal, so that coordinates are read exactly and not as binary floats
    try:
        if path == "-":
            obj = json.load(sys.stdin, parse_float=Decimal)
        else:
            with open(path) as fh:
                obj = json.load(fh, parse_float=Decimal)
    except OSError as exc:
        raise ProgramParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # malformed, or an integer longer than Python reads
        raise ProgramParseError(f"invalid JSON in {path}: {exc}") from exc
    n = obj.get("n") if isinstance(obj, dict) else None
    if type(n) is int and n > MAX_GEN_N:  # otherwise program_from_json says what is wrong
        raise AboveCeiling(f"the program has {n} strands, above the ceiling of {MAX_GEN_N}")
    return program_from_json(obj)


def _check_n_flag(args, program_n: int) -> None:
    if getattr(args, "n", None) is not None and args.n != program_n:
        raise ProgramParseError(
            f"--n {args.n} contradicts the program's strand count {program_n}"
        )


def cmd_compile(args) -> int:
    prog = _load_program(args.program)
    _check_n_flag(args, prog.n)
    if args.check_closed:
        prog = type(prog)(prog.initial, prog.moves, closed=True)
    out = compile_program(prog)
    lines = [format_word(out.word)]
    if args.events:
        # rendered before any line is printed: an event time or a turn count
        # computed from printable values may have more digits than print
        try:
            for e in out.events:
                lines.append(f"move={e.move_index} t={e.t} {e.triple} central={e.central}")
            if out.twist_turns:
                lines.append(f"twist_turns={out.twist_turns}")
        except ValueError:
            raise AboveCeiling(
                "an event time or turn count has more digits than Python prints"
            ) from None
    print("\n".join(lines))
    return 0


def cmd_classify(args) -> int:
    w = _read_word(args)
    cw = classify_word(w)
    print("pos\tletter\tstatus\tcentrals")
    for pos, (g, st) in enumerate(zip(w.letters, cw.statuses), start=1):
        print(f"{pos}\t{g}\t{'good' if st.good else 'bad'}\t{st.central or '-'}")
    print(f"realisable: {'yes' if cw.realisable else 'no'}")
    return 0


def cmd_project(args) -> int:
    w = _read_word(args)
    if args.stable:
        result, _passes = stable_projection(w)
    else:
        result = project_once(w)
    print(format_word(result))
    return 0


def cmd_reconstruct(args) -> int:
    w = _read_word(args)
    cyl = reconstruct_axis(w, args.axis)
    if args.invariants:
        print(annular_invariants(cyl).to_text())
    else:
        print(str(cyl))
    return 0


def cmd_equal(args) -> int:
    n = _strands(args, MAX_EQUAL_N)
    w1 = parse_word(args.word1, n)
    w2 = parse_word(args.word2, n)
    verdict = bounded_equal(w1, w2, depth=args.depth, max_len=args.max_len)
    if args.json:
        path = None if verdict.path is None else [str(m) for m in verdict.path]
        fields = {"status": verdict.status, "path": path, "witness": verdict.witness}
        print(json.dumps({**fields, "stats": asdict(verdict.stats)}))
    elif verdict.is_equal:
        path = " ".join(str(m) for m in verdict.path)
        print(f"equal ({len(verdict.path)} moves): {path}" if path else "equal (0 moves)")
    elif verdict.is_distinct:
        print(f"distinct: {verdict.witness}")
    else:
        print(f"unknown ({_stop_reason(verdict.stats, args)})")
    if args.stats and not args.json:
        print(f"stats: {verdict.stats}")
    return 0


def _stop_reason(stats, args) -> str:
    if stats.stop == "depth":
        return f"depth={args.depth} expansions reached"
    if stats.stop == "limit":
        return f"stored-letter limit {MAX_STORED_LETTERS:,} reached"
    return f"every word within max-len={args.max_len} reachable from one of the two words searched"


def cmd_parity(args) -> int:
    w = _read_word(args)
    odd = sorted(generator_parity(w).odd)
    print(" ".join(str(GenTriple(w.n, t)) for t in odd) if odd else "(all even)")
    return 0


def cmd_census(args) -> int:
    n = _strands(args, MAX_CENSUS_N)
    if args.lemma == "commute" and n >= 5:
        rows = commute_census_rows(n, args.samples)
        if rows > MAX_CENSUS_ROWS:
            raise AboveCeiling(
                f"--samples {clip(args.samples)} at n={n} gives {clip(rows, ',')} rows, "
                f"above the census ceiling of {MAX_CENSUS_ROWS:,}"
            )
    report = relation_census(n, args.lemma, samples=args.samples, seed=args.seed)
    # a block of lines per write, so that --full holds few rendered rows;
    # standard output writes through, which makes a write per line slow
    lines = report.lines(full=args.full)
    while block := list(islice(lines, 4096)):
        print("\n".join(block))
    return 0 if report.ok else 1


# the largest `gen --n`.  Building a gadget is cheap: `--braid 1,50` takes
# 0.01 s at n = 100 in process, 0.13 s and 18 MiB as a command.  Compiling it
# is not: its word has 5,360 letters at n = 100 and 20,850 at n = 200, which
# `compile_program` reads in 0.2 s and 1.7 s.  It also caps programs read.
MAX_GEN_N = 100


def _gen_n(args, flag: str) -> int:
    if args.n is None:
        raise ProgramParseError(f"{flag} requires --n")
    return _strands(args, MAX_GEN_N)


def cmd_gen(args) -> int:
    if args.braid:
        n = _gen_n(args, "--braid")
        try:
            i, j = (int(part) for part in args.braid.split(","))
        except ValueError as exc:
            raise ProgramParseError(f"--braid expects 'i,j', got {clip(args.braid)}") from exc
        prog = pure_braid_generator_program(n, i, j)
    elif args.full_twist is not None:
        prog = full_twist_program(_gen_n(args, "--full-twist"), args.full_twist)
    else:
        base = _load_program(args.embed)
        _check_n_flag(args, base.n)
        prog = embed_at_infinity(base)
    print(json.dumps(program_to_json(prog)))
    return 0


def cmd_selftest(args) -> int:
    import random as _random
    from itertools import combinations

    from .geometry import (
        boundary_configurations,
        dot,
        geometric_linking,
        orientation,
        random_closed_program,
        segment_events,
    )
    from .group_core import all_generators, apply_move
    from .index_state import (
        OrientationState,
        initial_state,
        is_realisable,
        run_word,
        tetra_letters,
    )
    from .reconstruction import NONTRIVIAL_BY_LINKING, kernel_witness

    def check_censuses() -> bool:
        # square and commute hold exhaustively; the tetra census documents a
        # known gap: arbitrary pre-states admit windows with 2 good letters,
        # so only count-2 rows may appear as violations there
        if not (relation_census(4, "square").ok and relation_census(5, "commute").ok):
            return False
        tetra = relation_census(4, "tetra")
        return all("good count 2" in row.detail for row in tetra.violations)

    def check_sliced_kernel() -> bool:
        # censuses read every status through one kernel that computes a
        # letter at all states at once; their rows against `classify_word`
        # (which `letter_status` reads through) on each side of the row's
        # case from its state alone.  8 seeded states at n=6 read every
        # letter, and at n=4 each letter has one outside strand, in region O,
        # G1 or G2 of `_central`'s XOR rule, so the square census shows every
        # (x, y) value against every target, unmasked by the misses of other
        # strands
        def walk(s, letters):
            cw = classify_word(GWord(s.n, tuple(letters)), s)
            tags = (f"g{st.central}" if st.good else "bad" for st in cw.statuses)
            return ",".join(f"{g}:{tag}" for g, tag in zip(letters, tags))

        for report in (
            relation_census(6, "commute", samples=8, seed=1997),
            relation_census(4, "square"),
            relation_census(4, "tetra"),
        ):
            for row in report.rows:
                s = OrientationState(report.n, row.state)
                if report.lemma == "tetra":
                    lhs = tetra_letters(4, tuple(map(int, row.case)))
                    sides = (lhs, lhs[::-1])
                else:
                    letters = [parse_word(name, report.n).letters[0] for name in row.case.split("|")]
                    # a then b, and b then a; a square case is a then a
                    a, b = letters if len(letters) == 2 else letters * 2
                    sides = ((a, b), (b, a)) if report.lemma == "commute" else ((a, b),)
                if row.statuses != "|".join(walk(s, side) for side in sides):
                    return False
        return True

    def check_full_twist() -> bool:
        out = compile_program(full_twist_program(4, 1))
        return len(out.word) == 0 and out.twist_turns == 1

    def check_round_trip() -> bool:
        prog = pure_braid_generator_program(4, 1, 3)
        word = compile_program(prog).word
        if not is_realisable(word):
            return False
        if run_word(initial_state(4), word) != initial_state(4):
            return False
        for axis in (2, 4):
            inv = annular_invariants(reconstruct_axis(word, axis))
            if not inv.is_identity:
                return False
            for pair, value in inv.linking:
                if value != geometric_linking(prog, *pair):
                    return False
        return True

    def check_kernel_witness() -> bool:
        # the one-pass witness against every axis rebuilt on its own
        gadget = compile_program(pure_braid_generator_program(4, 1, 3)).word
        w8 = compile_program(random_closed_program(8, seed=0)).word
        for w in (gadget, GWord(4, gadget.letters * 2), GWord(8, w8.letters + w8.letters[::-1])):
            off = []
            for axis in range(1, w.n + 1):
                base = annular_invariants(empty_cyl_word(w.n, axis))
                inv = annular_invariants(reconstruct_axis(w, axis))
                if invariants_equal_mod_full_twist(base, inv) is None:
                    off.append(axis)
            v = kernel_witness(w)
            if (v.kind == NONTRIVIAL_BY_LINKING, v.axis) != (bool(off), off[0] if off else None):
                return False
        return True

    def check_computed_gadget() -> bool:
        # the gadget's shape is chosen by a proof, not by compiling candidates,
        # so check one whose loop is small: a diametric pair
        prog = pure_braid_generator_program(32, 1, 17)
        if not is_realisable(compile_program(prog).word):
            return False
        return all(
            geometric_linking(prog, i, j) == ((i, j) == (1, 17))
            for i, j in combinations(range(1, 33), 2)
        )

    def check_stable_projection() -> bool:
        rng = _random.Random(20240)
        gens = all_generators(4)
        for _ in range(100):
            w = GWord(4, tuple(rng.choice(gens) for _ in range(rng.randint(0, 10))))
            out, passes = stable_projection(w)
            if not is_realisable(out) or project_once(out) != out:
                return False
            if passes > len(w) + 1:
                return False
        return True

    def check_embedding() -> bool:
        base = random_closed_program(4, seed=7)
        word = compile_program(base).word
        emb = embed_at_infinity(base)
        word5 = compile_program(emb).word
        kept = tuple(g.elems for g in word5.letters if 5 not in g.elems)
        return kept == tuple(g.elems for g in word.letters)

    def check_event_geometry() -> bool:
        # the integer kernels behind segment_events against the public
        # Fraction definitions: each event is collinear at its time, and its
        # central lies between the other two points
        seen = 0
        for n in (5, 6, 7):
            for seed in range(3):
                prog = random_closed_program(n, seed=seed)
                for cur, mv in zip(boundary_configurations(prog), prog.moves):
                    p0 = cur.point(mv.strand)
                    for e in segment_events(cur, mv.strand, mv.target):
                        pos = {k: cur.point(k) for k in e.triple.elems}
                        pos[mv.strand] = p0 + (mv.target - p0) * e.t
                        a, b, c = e.triple.elems
                        if orientation(pos[a], pos[b], pos[c]) != 0:
                            return False
                        o1, o2 = (pos[k] for k in e.triple.elems if k != e.central)
                        mid = pos[e.central]
                        if dot(o1 - mid, o2 - mid) >= 0:
                            return False
                        seen += 1
        return seen > 0

    def check_linking_rejects_what_compile_rejects() -> bool:
        # strand 1 of the regular square runs through strand 2 at (-1, 0)
        meet = [{"type": "line", "strand": 1, "to": ["-2", "-1"]}]
        obj = dict(program_to_json(full_twist_program(4, 1)), moves=meet)
        errors = []
        for read in (compile_program, lambda p: geometric_linking(p, 1, 2)):
            try:
                read(program_from_json(obj))
            except TribraidError as exc:
                errors.append((type(exc).__name__, str(exc)))
        return errors == [("GenericityError", "moving strand meets another strand")] * 2

    def check_bounded_equality() -> bool:
        # a tetrahedron window reversed, a square that w1's first expansion
        # meets inside its block of square insertions, and a square deleted
        # from a run of three, which every position of the run but the last
        # deletes alike: the path names the first
        tetra = parse_word("a123 a124 a134 a234", 4)
        abc = parse_word("a123 a456 a789", 9)
        pairs = [
            (tetra, GWord(4, tetra.letters[::-1]), 1000, 8, ["tetra@0"]),
            (abc, parse_word("a159 a159 a123 a456 a789", 9), 1, 5, ["ins@0:a159"]),
            (parse_word("a123 a123 a123 a124", 4), parse_word("a123 a124", 4), 10, 4, ["del@0"]),
        ]
        for w1, w2, depth, max_len, path in pairs:
            verdict = bounded_equal(w1, w2, depth, max_len)
            if not verdict.is_equal or [str(move) for move in verdict.path] != path:
                return False
            for move in verdict.path:
                w1 = apply_move(w1, move)
            if w1 != w2:
                return False
        return bounded_equal(parse_word("a123", 4), parse_word("a124", 4), 10, 6).is_distinct

    checks = [
        ("sliced census kernel against letter_status", check_sliced_kernel),
        ("relation censuses", check_censuses),
        ("full twist compiles to the empty word", check_full_twist),
        ("generator gadget round trip", check_round_trip),
        ("kernel witness against per-axis invariants", check_kernel_witness),
        ("computed gadget links only its pair", check_computed_gadget),
        ("stable projection fixed points", check_stable_projection),
        ("embedding restriction", check_embedding),
        ("collinearity events against orientation and dot", check_event_geometry),
        ("linking rejects what compile rejects", check_linking_rejects_what_compile_rejects),
        ("bounded equality", check_bounded_equality),
    ]
    failed = 0
    for name, fn in checks:
        # a check that raises fails, and the rest still run
        try:
            ok, why = fn(), ""
        except Exception as exc:
            ok, why = False, f" ({type(exc).__name__}: {exc})"
        print(f"{'PASS' if ok else 'FAIL'} {name}{why}")
        failed += 0 if ok else 1
    return 0 if failed == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, and building it costs more than most commands."""
    parser = argparse.ArgumentParser(
        prog="tribraid",
        description="Compile strand motions to words, classify realisability, "
        "project, reconstruct annular braids, and run relation censuses.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("compile", help="compile a program JSON file to a word")
    p.add_argument("program", help="program JSON path, or - for stdin")
    p.add_argument("--n", type=int, default=None, help="must match the program's n")
    p.add_argument("--events", action="store_true", help="also print the event table")
    p.add_argument("--check-closed", action="store_true", help="require the motion to close up")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("classify", help="per-letter good/bad table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("word", help="word text, or - for stdin")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("project", help="delete bad letters")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stable", action="store_true", help="iterate to the fixed point")
    p.add_argument("word", help="word text, or - for stdin")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("reconstruct", help="cylindrical braid word around an axis")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--axis", type=int, required=True)
    p.add_argument("--invariants", action="store_true", help="print permutation and linking matrix")
    p.add_argument("word", help="word text, or - for stdin")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("equal", help="bounded search for a relation path")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depth", type=int, default=1000, help="expanded-word budget")
    p.add_argument("--max-len", type=int, default=12, dest="max_len")
    p.add_argument("--stats", action="store_true", help="also print what the search did")
    p.add_argument(
        "--json", action="store_true", help="print the verdict and its stats as one JSON object"
    )
    p.add_argument("word1")
    p.add_argument("word2")
    p.set_defaults(func=cmd_equal)

    p = sub.add_parser("parity", help="generators with odd occurrence count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("word", help="word text, or - for stdin")
    p.set_defaults(func=cmd_parity)

    p = sub.add_parser("census", help="exhaustive relation-status census")
    p.add_argument("--lemma", choices=("tetra", "square", "commute"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=512, help="state samples for n >= 6")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--full", action="store_true", help="print every row, not just violations")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("gen", help="emit a program JSON")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--braid", metavar="i,j", help="pure braid generator motion")
    group.add_argument("--full-twist", type=int, default=None, metavar="M", dest="full_twist")
    group.add_argument("--embed", metavar="PROGRAM", help="add a far stationary strand")
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("selftest", help="run a condensed verification sweep")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (WordParseError, ProgramParseError, InvalidBudget, AboveCeiling) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TribraidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # downstream consumer (head, etc.) closed the pipe early
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
