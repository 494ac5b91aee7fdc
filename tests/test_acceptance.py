"""Acceptance gate: the ten cross-validation criteria, one test each.

The randomized battery runs once per session (twice internally for the
determinism comparison); each test here asserts one criterion from the
frozen report so the pass/fail line in the pytest output names the
criterion it covers.
"""

import numpy as np
import pytest

from riccstab import acceptance, ddesim
from riccstab.classes import (
    CHAIN_3X3,
    FAN_IN_3X3,
    LAST_ROW_FORM,
    METZLER_NONNEG,
    STRUCTURED_TAGS,
    classify,
    feedback_condition,
)
from riccstab.matcore import BlockSymmetric
from riccstab.riccati import CorrelationWitness, MatrixPair, Verdict, solve_diagonal


@pytest.fixture(scope="session")
def battery():
    return acceptance.selftest(seed=0)


def criterion(battery, name):
    entry = battery.report["criteria"][name]
    assert entry["passed"], f"{name} failed: {entry}"
    return entry


def test_criterion_01_positive_oracle(battery):
    entry = criterion(battery, "positive_oracle")
    assert entry["cases"] == 200
    assert entry["mismatches"] == 0
    assert entry["feasible"] > 0 and entry["refuted"] > 0
    assert (entry["feasible"], entry["refuted"]) == (109, 91)
    assert battery.timings["first_run"]["positive_oracle"] < 120.0


def test_criterion_02_three_by_three_oracle(battery):
    entry = criterion(battery, "three_by_three_oracle")
    assert entry["chain"]["cases"] == 200
    assert entry["fan_in"]["cases"] == 200
    assert entry["chain"]["mismatches"] == 0
    assert entry["fan_in"]["mismatches"] == 0
    assert (entry["chain"]["stable"], entry["fan_in"]["stable"]) == (54, 29)


def test_criterion_03_signature_classes(battery):
    entry = criterion(battery, "signature_classes")
    for name in ("rank_one_row", "tridiagonal", "last_row", "superdiagonal"):
        assert entry[name]["cases"] == 100
        assert entry[name]["mismatches"] == 0
    stable = {name: entry[name]["stable"] for name in ("rank_one_row", "tridiagonal", "last_row", "superdiagonal")}
    assert stable == {"rank_one_row": 55, "tridiagonal": 41, "last_row": 78, "superdiagonal": 74}


def test_criterion_04_certificate_map(battery):
    entry = criterion(battery, "certificate_map")
    assert entry["cases"] == 100
    assert entry["failures"] == 0


def test_criterion_05_hadamard_damping(battery):
    entry = criterion(battery, "hadamard_damping")
    assert entry["cases"] == 100
    assert entry["refuted"] == 0
    assert entry["unknown"] <= 5


def test_criterion_06_witness_soundness(battery):
    entry = criterion(battery, "witness_soundness")
    assert entry["witnesses_checked"] == 560
    assert entry["invalid_witnesses"] == 0
    assert entry["status_conflicts"] == 0


def test_criterion_07_correlation_bound(battery):
    entry = criterion(battery, "correlation_bound")
    assert entry["cases"] == 50
    assert entry["failures"] == 0


def test_criterion_08_lyapunov_pmatrix(battery):
    entry = criterion(battery, "lyapunov_pmatrix")
    assert entry["necessity_cases"] == 100
    assert entry["invariance_cases"] == 200
    assert entry["necessity_failures"] == 0
    assert entry["invariance_failures"] == 0


def test_criterion_09_delay_decay(battery):
    entry = criterion(battery, "delay_decay")
    assert entry["cases"] == 20
    assert entry["failures"] == 0
    assert entry["worst_zero_delay_diff"] <= 1e-8


def test_criterion_10_determinism(battery):
    entry = criterion(battery, "determinism")
    assert entry["identical_reports"]
    assert battery.first_json == battery.second_json
    assert battery.report["all_passed"]


def test_signature_classes_at_seed_one():
    """Seed 1 draws two tridiagonal pairs the closed form calls Stable (abscissa
    -0.153) that a budget-bound search left Unknown."""
    log = acceptance.WitnessLog()
    entry = acceptance.signature_classes(1, log)
    for name in ("rank_one_row", "tridiagonal", "last_row", "superdiagonal"):
        assert entry[name]["cases"] == 100
        assert entry[name]["mismatches"] == 0
    assert entry["passed"]


def test_class_oracles_draw_only_pairs_of_their_generators_class(monkeypatch):
    """evaluate_class would give a drawn pair of another class that class's
    verdict without a word, so every pair the three class oracles draw at
    seeds 0..3 must carry its generator's class. The draws do not depend on
    the solver, which is stubbed out."""
    drawn = {}
    for name in (
        "_metzler_pair",
        "_chain_instance",
        "_fan_in_instance",
        "_rank_one_row_instance",
        "_tridiag_instance",
        "_last_row_instance",
        "_superdiag_instance",
    ):

        def recording(*args, generator=getattr(acceptance, name), pairs=drawn.setdefault(name, [])):
            pairs.append(generator(*args))
            return pairs[-1]

        monkeypatch.setattr(acceptance, name, recording)
    monkeypatch.setattr(acceptance, "solve_diagonal", lambda pair: Verdict.unknown(-1.0))
    for seed in range(4):
        log = acceptance.WitnessLog()
        acceptance.positive_oracle(seed, log)
        acceptance.three_by_three_oracle(seed, log)
        acceptance.signature_classes(seed, log)

    assert {classify(pair).name for pair in drawn["_metzler_pair"]} == {METZLER_NONNEG}
    for name in ("_rank_one_row_instance", "_tridiag_instance", "_last_row_instance", "_superdiag_instance"):
        assert {classify(pair).name for pair in drawn[name]} <= set(STRUCTURED_TAGS), name
    feedback_tags = set()
    for name, shape in (("_chain_instance", CHAIN_3X3), ("_fan_in_instance", FAN_IN_3X3)):
        assert {feedback_condition(pair).tag.name for pair in drawn[name]} == {shape}, name
        feedback_tags |= {classify(pair).name for pair in drawn[name]}
    # classify tags some feedback draws first, which is why they skip it
    assert {METZLER_NONNEG, LAST_ROW_FORM} <= feedback_tags
    assert all(len(pairs) >= 100 for pairs in drawn.values())


def test_delay_decay_verifies_each_certificate_once(monkeypatch):
    verified = []
    verify = ddesim.verify_certificate

    def counting(*args):
        verified.append(args[0].n)
        return verify(*args)

    monkeypatch.setattr(ddesim, "verify_certificate", counting)
    entry = acceptance.delay_decay(0, cases=4)
    assert entry["solved_feasible"] > 0
    assert len(verified) == entry["solved_feasible"]


def test_witness_log_validates_the_witness_it_holds(monkeypatch):
    pair = MatrixPair([[-1.0]], [[2.0]])
    verdict = solve_diagonal(pair)
    built = []
    post_init = BlockSymmetric.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(BlockSymmetric, "__post_init__", counting)
    log = acceptance.WitnessLog()
    log.record(pair, verdict)
    assert (log.witnesses_checked, log.invalid_witnesses) == (1, 0)
    assert built == []


def test_witness_log_counts_tampered_witnesses_as_invalid():
    pair = MatrixPair([[-1.0]], [[2.0]])
    verdict = solve_diagonal(pair)
    assert verdict.status == Verdict.REFUTED
    report = verdict.witness.p_report
    log = acceptance.WitnessLog()
    log.record(pair, verdict)
    assert (log.witnesses_checked, log.invalid_witnesses) == (1, 0)
    # S12 = 0: PSD with unit diagonal, but the image -A = 1 is a P-matrix
    log.record(pair, Verdict.refuted(CorrelationWitness(BlockSymmetric(np.eye(2)), report)))
    assert (log.witnesses_checked, log.invalid_witnesses) == (2, 1)
    # S12 = 2: the image -(A + 2B) = -3 fails, but S has the eigenvalue -1
    log.record(pair, Verdict.refuted(CorrelationWitness(BlockSymmetric([[1.0, 2.0], [2.0, 1.0]]), report)))
    assert (log.witnesses_checked, log.invalid_witnesses) == (3, 2)
    # S11, then S22, 1e-11 off unit: PSD, and the image -(A + B) = -1 fails
    for diagonal in ([1.0 + 1e-11, 1.0], [1.0, 1.0 + 1e-11]):
        s = np.ones((2, 2))
        np.fill_diagonal(s, diagonal)
        log.record(pair, Verdict.refuted(CorrelationWitness(BlockSymmetric(s), report)))
    assert (log.witnesses_checked, log.invalid_witnesses) == (5, 4)
