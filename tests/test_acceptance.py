"""Acceptance gate: one test per criterion, at the stated scales and tolerances.

Each test prints its PASS/FAIL line (run pytest with -s to watch them live).
Criteria 06 and 12 contain step-refinement clauses that measure at their
pinned configurations as impossible to satisfy (the delay-residual ratio
converges to 1/2 from above, and the boundary-hit ratio sits near 2^-0.3);
they are asserted as stated and fail honestly.  The numbers behind that
finding are summarized in the README's acceptance-status section; every
other clause of those criteria passes.
"""

import re

from seedbank.acceptance import CRITERIA, run_acceptance

SEED = 0

_BY_IDENT = {fn.__name__[2:4]: fn for fn in CRITERIA}


def _run(ident):
    res = _BY_IDENT[ident](SEED)
    print(f"{'PASS' if res.passed else 'FAIL'} {res.ident} {res.name}: {res.detail}")
    return res


def test_echo_lines_end_with_wall_seconds():
    lines = []
    run_acceptance(SEED, echo=lines.append, only={"01"})
    assert len(lines) == 1 and re.fullmatch(r"PASS 01 .* \(\d+\.\d s\)", lines[0])


def test_criterion_01_rate_table_exactness():
    assert _run("01").passed


def test_criterion_02_first_step_oracle():
    assert _run("02").passed


def test_criterion_03_duality_spontaneous():
    assert _run("03").passed


def test_criterion_04_duality_simultaneous():
    assert _run("04").passed


def test_criterion_05_fixation_law():
    assert _run("05").passed


def test_criterion_06_delay_representation():
    res = _run("06")
    assert res.detail["max_residual"] <= 0.01
    assert res.passed, (
        "median residual ratio sits on the asymptotic value 1/2 from above; "
        "see README, acceptance status"
    )


def test_criterion_07_martingale():
    assert _run("07").passed


def test_criterion_08_tmrca_scaling():
    assert _run("08").passed


def test_criterion_09_coming_down_trichotomy():
    assert _run("09").passed


def test_criterion_10_mutation_sfs_oracle():
    assert _run("10").passed


def test_criterion_11_statistics_exactness():
    assert _run("11").passed


def test_criterion_12_boundary_classification():
    res = _run("12")
    assert res.detail["y_hits_ok"] and res.detail["no_mutation_positive_hits"]
    assert res.passed, (
        "the dt-halving clause cannot hold for a faithful discretization at "
        "this configuration (hit frequency scales like dt^0.3); see notes on "
        "criterion 12 in the README"
    )


def test_criterion_13_determinism():
    assert _run("13").passed
