"""Acceptance gate: one test per criterion, each driving a named check
suite against frozen expected values and a wall clock budget."""

import time

from tworoots.verify import run_suites


def _run(suite, budget, label):
    t0 = time.monotonic()
    checks = run_suites([suite], seed=0)
    dt = time.monotonic() - t0
    for c in checks:
        print(c.line())
    print("%s: %d checks in %.1fs (budget %ds)"
          % (label, len(checks), dt, budget))
    bad = [(c.name, c.detail) for c in checks if not c.ok]
    assert not bad, "failed checks: %s" % bad
    assert dt < budget, "suite took %.1fs, budget is %ds" % (dt, budget)


def test_c01_canonical_basis_sizes():
    _run("basis", 60, "criterion 1, classification and basis sizes")


def test_c02_orbit_tables():
    _run("orbits", 30, "criterion 2, orbit counts and sizes")


def test_c03_sign_coherence():
    _run("coherence", 180, "criterion 3, sign coherent expansions")


def test_c04_highest_two_roots():
    _run("highest", 120, "criterion 4, highest 2-roots in closed form")


def test_c05_partial_orders():
    _run("orders", 60, "criterion 5, move order versus coordinate order")


def test_c06_invariant_forms():
    _run("forms", 60, "criterion 6, forms and decompositions")


def test_c07_action_kernels():
    _run("kernels", 180, "criterion 7, kernels of the orbit actions")


def test_c08_identities():
    _run("identities", 60, "criterion 8, algebraic identities")


def test_c09_arc_pictures():
    _run("skein", 5, "criterion 9, arc picture goldens")


def test_c10_norm2_witnesses():
    _run("witness", 30, "criterion 10, norm 2 witnesses")
