"""Acceptance gate: one test per criterion, each at its stated scale.

Every check is exact (no tolerances).  A visible pass/fail line per
criterion is printed so `pytest -v -s` doubles as the acceptance report;
`ribbonlens selfcheck` runs the same functions.  Each detail line is pinned
at default scale, so a change in what a suite counts fails here.
"""

from ribbonlens import selfcheck


def _gate(number, name, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_cf_round_trip():
    ok, detail = selfcheck.check_cf_round_trip(max_p=200)
    _gate(1, "continued-fraction round trip, p <= 200", ok, detail)
    assert detail == "12231 fractions round-tripped, all terms >= 2"


def test_criterion_2_primitivity_two_routes():
    ok, detail = selfcheck.check_primitivity_routes()
    _gate(2, "primitivity equivalence on 200 random sublattices", ok, detail)
    assert detail == "200 sublattices agreed on both primitivity routes"


def test_criterion_3_triple_expansion_stability():
    ok, detail = selfcheck.check_triple_stability()
    _gate(3, "expansion stability for m in 2..5, depth <= 3", ok, detail)
    assert detail == "56 expanded subsets kept the stable complement type"


def test_criterion_4_family_converse():
    ok, detail = selfcheck.check_family_converse()
    _gate(4, "family membership / classifier / embedding chain", ok, detail)
    assert detail == "9 family members verified end to end"


def test_criterion_5_oracle_classifier_agreement():
    ok, detail = selfcheck.check_oracle_classifier_agreement(max_p=12)
    _gate(5, "classifier vs embedding oracle, p <= 12", ok, detail)
    assert detail == "2116 ordered pairs agreed in both orientations (76 yes instances)"


def test_criterion_6_r_oracle_invariance():
    ok, detail = selfcheck.check_r_oracle_invariance(max_p=36)
    _gate(6, "ball-membership invariances, p <= 36", ok, detail)
    assert detail == "395 fractions invariant (30 members)"


def test_criterion_7_witness_replay_and_monotonicity():
    ok, detail = selfcheck.check_witness_replay(max_p=12)
    _gate(7, "witness replay and sum monotonicity, p <= 12", ok, detail)
    assert detail == "125 yes-verdicts replayed, compositions stayed yes"


def test_criterion_8_golden_transcripts():
    ok, detail = selfcheck.check_golden_transcripts()
    _gate(8, "frozen CLI transcripts", ok, detail)
    assert detail == "5 transcripts byte-identical"
