"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line with the measured quantity so the run log
doubles as a report.  Certificates produced along the way are pooled for the
rank-bound criterion.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from sostensor import generators
from sostensor.sos import (
    CertifyOptions,
    SosCertificate,
    certify_sos,
    gershgorin_lower_bound,
    lambda_bound,
    sos_rank_bounds,
)
from sostensor.spectral import (
    EigMinOptions,
    _form_value,
    brute_force_min,
    generate_procedure1,
    is_positive_definite,
    min_h_eigenvalue,
)
from sostensor.structured import classify, detect_extended_z
from sostensor.tensor import (
    HomogeneousPolynomial,
    eigen_residual,
    from_polynomial,
    sym_outer_square,
)

from helpers import random_extended_z_tensor, random_symmetric_tensor

CERT_POOL = []  # (tensor, certificate) pairs accumulated by earlier criteria


def report(criterion, ok, detail):
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE criterion {criterion}: {state} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_coupled_eigenvalue():
    t0 = time.perf_counter()
    res = min_h_eigenvalue(generators.example51())
    elapsed = time.perf_counter() - t0
    err = abs(res.lambda_min - (-1.0))
    report(
        1,
        err <= 1e-4 and elapsed < 60.0,
        f"lambda_min={res.lambda_min:.8f} err={err:.2e} runtime={elapsed:.2f}s",
    )


def test_criterion_2_two_parameter_family():
    rng = np.random.default_rng(20250810)
    worst = 0.0
    for _ in range(100):
        alpha, beta = rng.uniform(-5.0, 5.0, size=2)
        res = min_h_eigenvalue(generators.example52(float(alpha), float(beta)))
        truth = 1.0 - 10.0 * max(abs(alpha), abs(beta))
        worst = max(worst, abs(res.lambda_min - truth))
    report(2, worst <= 1e-3, f"100 draws, max |computed - truth| = {worst:.2e}")


def test_criterion_3_quartic_family():
    details = []
    ok = True
    for n in (4, 8, 20):
        # one program over all n variables, not split on the blocks
        value, _, _ = _form_value(
            generators.example54(n).to_polynomial(), EigMinOptions(tol=1e-4)
        )
        err = abs(value - (n - 1))
        ok = ok and err <= 1e-3
        details.append(f"n={n} mono err={err:.1e}")
    for n in (100, 500):
        res = min_h_eigenvalue(generators.example54(n))
        err = abs(res.lambda_min - (n - 1))
        ok = ok and err <= 1e-3 and res.method == "blockwise"
        details.append(f"n={n} block err={err:.1e}")
    report(3, ok, "; ".join(details))


def test_criterion_4_degenerate_zero():
    res = min_h_eigenvalue(generators.example53(10), EigMinOptions(tol=1e-7))
    err = abs(res.lambda_min)
    methods = {b.method for b in res.per_block}
    report(
        4,
        err <= 1e-5 and res.method == "blockwise",
        f"lambda_min={res.lambda_min:.2e} via blocks {sorted(methods)}",
    )


def test_criterion_5_dual_cone_witness():
    A, M = generators.dual_witness_pair()
    value = A.inner(sym_outer_square(M))
    report(
        5,
        value == Fraction(-8),
        f"inner product = {value!r} (exact rational)",
    )


def test_criterion_6_pd_harness():
    t0 = time.perf_counter()
    correct = 0
    pd = npd = 0
    for i in range(100):
        inst = generate_procedure1(4, 20, 4, 5, 100.0, seed=31_000 + i)
        res = is_positive_definite(
            inst.tensor, EigMinOptions(tol=1e-4, seed=31_000 + i)
        )
        if res.verdict is True:
            pd += 1
        else:
            npd += 1
        if res.verdict is not None and res.verdict == inst.positive_definite:
            correct += 1
    elapsed = time.perf_counter() - t0
    report(
        6,
        correct == 100 and elapsed < 1800.0,
        f"PD={pd} NPD={npd} correctness={correct}% runtime={elapsed:.0f}s",
    )


CLASS_LIST = (
    "cauchy_psd",
    "weak_diag_dominated",
    "b0",
    "double_b",
    "quasi_double_b0",
    "mb0",
    "h_nonneg_diag",
    "abs_psd_z",
    "psd_extended_z",
)


def test_criterion_7_class_completeness():
    t0 = time.perf_counter()
    failures = []
    for name in CLASS_LIST:
        for s in range(20):
            order = (4, 6)[s % 2]
            dim = 2 + (s % 3)
            A = generators.random_class_instance(name, order, dim, 40_000 + s)
            cert = certify_sos(A)
            if isinstance(cert, SosCertificate):
                CERT_POOL.append((A, cert))
            else:
                failures.append((name, order, dim, s, cert.status))
    elapsed = time.perf_counter() - t0
    report(
        7,
        not failures,
        f"{9 * 20} instances certified, failures={failures}, runtime={elapsed:.0f}s",
    )


def test_criterion_8_rank_bounds():
    # pool from criterion 7, plus the named bounded-exponent cases
    pool = list(CERT_POOL)
    named = []
    f0 = from_polynomial(
        HomogeneousPolynomial(4, 3, {(2, 2, 0): 1, (0, 2, 2): 1, (2, 0, 2): 1})
    )
    named.append(("pairwise squares", f0, 3))
    men = from_polynomial(HomogeneousPolynomial(6, 3, {(2, 2, 2): 1.0}))
    named.append(("full product", men, 1))
    checked = 0
    worst = ""
    ok = True
    for A, cert in pool:
        bounds = sos_rank_bounds(A, cert)  # raises on violation
        checked += 1
        if bounds.bd is not None and bounds.observed > bounds.bd:
            ok = False
            worst = f"bd violated at {A.order},{A.dim}"
    for label, A, expect in named:
        cert = certify_sos(A)
        assert isinstance(cert, SosCertificate)
        bounds = sos_rank_bounds(A, cert)
        checked += 1
        if bounds.observed != expect:
            ok = False
            worst = f"{label}: rank {bounds.observed} != {expect}"
    # bounded-exponent biquadratics in three vars: rank at most n = 3
    rng = np.random.default_rng(55)
    for _ in range(5):
        terms = {}
        for _k in range(3):
            c = rng.standard_normal(3)
            prod = {}
            quad = {(1, 1, 0): c[0], (0, 1, 1): c[1], (1, 0, 1): c[2]}
            for a1, c1 in quad.items():
                for a2, c2 in quad.items():
                    key = tuple(x + y for x, y in zip(a1, a2))
                    prod[key] = prod.get(key, 0.0) + c1 * c2
            for k, v in prod.items():
                terms[k] = terms.get(k, 0.0) + v
        A = from_polynomial(HomogeneousPolynomial(4, 3, terms))
        cert = certify_sos(A)
        assert isinstance(cert, SosCertificate)
        bounds = sos_rank_bounds(A, cert)
        checked += 1
        if not (bounds.bd == 3 and bounds.observed <= 3):
            ok = False
            worst = f"biquadratic rank {bounds.observed}"
    report(8, ok, f"{checked} certificates within bounds {worst}")


def test_criterion_9_oracle_equivalence():
    rng = np.random.default_rng(777)
    worst_gap = 0.0
    for i in range(50):
        A = random_extended_z_tensor(rng, 4, int(rng.integers(2, 5)))
        res = min_h_eigenvalue(A, EigMinOptions(seed=900 + i))
        val, _ = brute_force_min(A, seed=901 + i)
        worst_gap = max(worst_gap, abs(res.lambda_min - val))
    worst_over = -math.inf
    for i in range(50):
        A = random_symmetric_tensor(rng, 4, int(rng.integers(2, 5)), density=0.6)
        res = min_h_eigenvalue(A, EigMinOptions(seed=950 + i))
        val, _ = brute_force_min(A, seed=951 + i)
        worst_over = max(worst_over, res.lambda_min - val)
    report(
        9,
        worst_gap <= 1e-3 and worst_over <= 1e-6,
        f"extended-Z max |gap|={worst_gap:.2e}; overshoot={worst_over:.2e}",
    )


def test_criterion_10_property_suites():
    rng = np.random.default_rng(4242)
    checks = []

    # polynomial round trip
    ok_rt = True
    for order in (2, 4, 6):
        for dim in (2, 3, 5):
            A = random_symmetric_tensor(rng, order, dim)
            B = from_polynomial(A.to_polynomial())
            for idx, v in A.entries.items():
                if not math.isclose(float(B.entries[idx]), float(v), rel_tol=1e-12):
                    ok_rt = False
    checks.append(("round trip", ok_rt))

    # Gershgorin soundness
    ok_g = True
    for i in range(10):
        A = random_symmetric_tensor(rng, 4, 3, density=0.7)
        val, _ = brute_force_min(A, restarts=40, seed=60 + i)
        if gershgorin_lower_bound(A) > val + 1e-9:
            ok_g = False
    checks.append(("gershgorin", ok_g))

    # homogeneity and shift
    ok_h = True
    for i in range(5):
        A = random_extended_z_tensor(rng, 4, 3)
        base = min_h_eigenvalue(A, EigMinOptions(seed=70 + i)).lambda_min
        scaled = min_h_eigenvalue(A.scale(2.5), EigMinOptions(seed=70 + i)).lambda_min
        shifted = min_h_eigenvalue(
            A.shift_diagonal(1.25), EigMinOptions(seed=70 + i)
        ).lambda_min
        if abs(scaled - 2.5 * base) > 1e-6 * (1 + abs(base)) * 2.5:
            ok_h = False
        if abs(shifted - (base + 1.25)) > 1e-6 * (1 + abs(base) + 1.25):
            ok_h = False
    checks.append(("homogeneity/shift", ok_h))

    # minimizer residual at the oracle optimum
    ok_r = True
    for i in range(5):
        A = random_symmetric_tensor(rng, 4, 4, density=0.6)
        val, x = brute_force_min(A, seed=80 + i)
        if eigen_residual(A, val, x) > 1e-4 * (1 + A.norm()):
            ok_r = False
    checks.append(("minimizer residual", ok_r))

    # classifier implication chains
    ok_c = True
    for i in range(8):
        A = random_symmetric_tensor(rng, 4, 3, density=0.6)
        rep = classify(A)
        v = rep.verdicts
        if v["diagonally_dominated"].holds and not v["weakly_diagonally_dominated"].holds:
            ok_c = False
        if v["z_tensor"].holds and not v["extended_z"].holds:
            ok_c = False
        if v["quasi_double_b0"].holds and not v["mb0"].holds:
            ok_c = False
    for i in range(6):
        A = generators.random_class_instance("quasi_double_b0", 4, 3, 7_000 + i)
        rep = classify(A)
        if rep.verdicts["quasi_double_b0"].holds and not rep.verdicts["mb0"].holds:
            ok_c = False
    checks.append(("implication chain", ok_c))

    failed = [name for name, ok in checks if not ok]
    report(10, not failed, f"suites={[name for name, _ in checks]} failed={failed}")
