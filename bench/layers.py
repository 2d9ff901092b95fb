"""Per-layer metrics computed from the spans of a traced run.

Every traced run reports every metric below, whatever its workload; a
metric whose layer call the workload never makes reads 0.  Times are per
call or per unit of work; counts are per round, so that neither depends on
how many rounds fitted into the run.  The README maps each metric to the
end-to-end metric it should move.
"""

from __future__ import annotations

from collections import defaultdict

from spans import self_seconds

LAYERS = ("geometry", "index_state", "reconstruction", "group_core", "cli", "bench")
MOTION_NS = (6, 8, 10)
WORD_NS = (8, 16, 32)
CENSUSES = ("square4", "tetra4", "commute5", "commute6")
CLI_COMMANDS = ("gen", "compile", "reconstruct")


def _spec():
    out = [("geometry.random_closed_program.s", "s")]
    out += [(f"geometry.compile_program.us_per_move.n{n}", "us/move") for n in MOTION_NS]
    out.append(("geometry.compile_program.letters", "count"))
    out += [(f"geometry.geometric_linking.us_per_pair.n{n}", "us/pair") for n in MOTION_NS]
    out += [(f"index_state.classify_word.us_per_letter.n{n}", "us/letter") for n in WORD_NS]
    out += [("index_state.stable_projection.s", "s"), ("index_state.stable_projection.passes", "count")]
    for c in CENSUSES:
        out += [
            (f"index_state.relation_census.s.{c}", "s"),
            (f"index_state.relation_census.rows.{c}", "count"),
            (f"index_state.relation_census.violations.{c}", "count"),
        ]
    out.append(("reconstruction.reconstruct_axis.us_per_letter", "us/letter"))
    out += [(f"reconstruction.kernel_witness.s.n{n}", "s") for n in WORD_NS]
    out += [
        ("group_core.parse_word.us_per_letter", "us/letter"),
        ("group_core.format_word.us_per_letter", "us/letter"),
        ("group_core.bounded_equal.s", "s"),
        ("group_core.bounded_equal.calls", "count"),
        ("group_core.bounded_equal.proven", "count"),
        ("group_core.bounded_equal.unknown", "count"),
    ]
    out += [(f"cli.main.s.{c}", "s") for c in CLI_COMMANDS]
    out.append(("cli.gen.failed", "count"))
    out += [(f"{layer}.self_s", "s") for layer in LAYERS]
    out.append(("trace.overhead_pct", "%"))
    return out


# counts of work done or proven are better high; times, passes, failures,
# violations and unknown verdicts are better low
_HIGHER = (".letters", ".calls", ".proven") + tuple(f".rows.{c}" for c in CENSUSES)
PER_LAYER = [(name, unit, "higher" if name.endswith(_HIGHER) else "lower") for name, unit in _spec()]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, rounds: int, overhead_pct: float) -> dict:
    """Every per-layer metric, as {name: value}, from the spans of `rounds`
    traced rounds."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def hits(name, match):
        return [s for s in by_name[name] if all(s.counts.get(k) == v for k, v in match.items())]

    def mean_s(name, **match):
        spans = hits(name, match)
        return _ratio(sum(s.duration for s in spans), len(spans))

    def mean_count(name, key, **match):
        spans = hits(name, match)
        return _ratio(sum(s.counts[key] for s in spans), len(spans))

    def per_unit_us(name, unit, **match):
        spans = hits(name, match)
        return 1e6 * _ratio(sum(s.duration for s in spans), sum(s.counts[unit] for s in spans))

    def per_round(name, key, value=None):
        hits = by_name[name]
        if value is None:
            return _ratio(sum(s.counts[key] for s in hits), rounds)
        return _ratio(sum(1 for s in hits if s.counts.get(key) == value), rounds)

    m = {"geometry.random_closed_program.s": mean_s("geometry.random_closed_program")}
    for n in MOTION_NS:
        m[f"geometry.compile_program.us_per_move.n{n}"] = per_unit_us(
            "geometry.compile_program", "moves", n=n
        )
        m[f"geometry.geometric_linking.us_per_pair.n{n}"] = 1e6 * mean_s(
            "geometry.geometric_linking", n=n
        )
    m["geometry.compile_program.letters"] = per_round("geometry.compile_program", "letters")
    for n in WORD_NS:
        m[f"index_state.classify_word.us_per_letter.n{n}"] = per_unit_us(
            "index_state.classify_word", "letters", n=n
        )
        m[f"reconstruction.kernel_witness.s.n{n}"] = mean_s("reconstruction.kernel_witness", n=n)
    m["index_state.stable_projection.s"] = mean_s("index_state.stable_projection")
    m["index_state.stable_projection.passes"] = per_round("index_state.stable_projection", "passes")
    for c in CENSUSES:
        m[f"index_state.relation_census.s.{c}"] = mean_s("index_state.relation_census", census=c)
        for key in ("rows", "violations"):
            m[f"index_state.relation_census.{key}.{c}"] = mean_count(
                "index_state.relation_census", key, census=c
            )
    m["reconstruction.reconstruct_axis.us_per_letter"] = per_unit_us(
        "reconstruction.reconstruct_axis", "letters"
    )
    m["group_core.parse_word.us_per_letter"] = per_unit_us("group_core.parse_word", "letters")
    m["group_core.format_word.us_per_letter"] = per_unit_us("group_core.format_word", "letters")
    m["group_core.bounded_equal.s"] = mean_s("group_core.bounded_equal")
    m["group_core.bounded_equal.calls"] = _ratio(len(by_name["group_core.bounded_equal"]), rounds)
    m["group_core.bounded_equal.proven"] = per_round("group_core.bounded_equal", "verdict", "equal")
    m["group_core.bounded_equal.unknown"] = per_round("group_core.bounded_equal", "verdict", "unknown")
    for c in CLI_COMMANDS:
        m[f"cli.main.s.{c}"] = mean_s("cli.main", command=c)
    m["cli.gen.failed"] = _ratio(
        sum(1 for s in by_name["cli.main"] if s.counts["command"] == "gen" and s.counts["rc"] != 0),
        rounds,
    )
    selfs = self_seconds(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = _ratio(selfs.get(layer, 0.0), rounds)
    m["trace.overhead_pct"] = overhead_pct
    return {name: m[name] for name, _, _ in PER_LAYER}
