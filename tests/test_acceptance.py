"""Acceptance gate: one test per shipped guarantee.

Each test prints exactly one line, ``[acceptance N] PASS: ...`` or
``[acceptance N] FAIL: ...`` (run with ``pytest -s`` to see them), and then
asserts.  Criteria 1-6 are bit-exact algebraic checks; 7-8 are randomized
suites with fixed seeds and hard runtime caps.
"""

import random
import time
from math import gcd

from oracles import (
    coset_count_2x2,
    is_divisor_chain,
    random_cuntz_element,
    random_homogeneous_element,
    random_int_matrix,
)

from spherecp.bundles import OddSphereNonzeroClass, SphereBundleSpec, validate
from spherecp.classify import delta1_equal, graded_stably_isomorphic, k_distinguishable
from spherecp.cuntz_words import CuntzElement, generator
from spherecp.fgab import (
    FgAbGroup,
    IntMatrix,
    cokernel,
    group_order,
    kernel,
    smith_normal_form,
)
from spherecp.ktheory import k_class
from spherecp.pimsner import k_groups, k_groups_trivial, pimsner_matrix

EVEN_SPHERES = (2, 4, 6)
ODD_SPHERES = (3, 5, 7)


def _report(number: int, failures: list, description: str) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance {number}] {status}: {description}")
    assert not failures, f"criterion {number} failed; first cases: {failures[:3]}"


def test_criterion_1_coprime_k_groups():
    """gcd(d-1, c) = 1 forces K0 cyclic of order (d-1)^2 and K1 = 0."""
    failures = []
    cases = 0
    started = time.perf_counter()
    for sphere_dim in EVEN_SPHERES:
        for d in range(2, 13):
            for c in range(-12, 13):
                if gcd(d - 1, c) != 1:
                    continue
                cases += 1
                pair = k_groups(SphereBundleSpec(sphere_dim, d, c))
                expected = FgAbGroup.from_factors([(d - 1) ** 2])
                if pair.k0 != expected or not pair.k1.is_trivial:
                    failures.append((sphere_dim, d, c, str(pair.k0), str(pair.k1)))
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(("runtime", elapsed))
    _report(1, failures, f"coprime grid: K0 = Z/(d-1)^2, K1 = 0 "
                         f"({cases} cases, {elapsed:.2f}s < 1s)")


def test_criterion_2_trivial_bundle_two_routes():
    """For c = 0 the Pimsner route matches the product-space closed form."""
    failures = []
    cases = 0
    for sphere_dim in EVEN_SPHERES:
        for d in range(2, 13):
            cases += 1
            spec = SphereBundleSpec(sphere_dim, d, 0)
            via_matrix = k_groups(spec)
            via_product = k_groups_trivial(spec)
            expected = FgAbGroup.from_factors([d - 1, d - 1])
            if not (via_matrix.k0 == via_product.k0 == expected
                    and via_matrix.k1.is_trivial and via_product.k1.is_trivial):
                failures.append((sphere_dim, d, str(via_matrix.k0), str(via_product.k0)))
    _report(2, failures, f"trivial bundle: both routes give Z/(d-1) + Z/(d-1), K1 = 0 "
                         f"({cases} cases)")


def test_criterion_3_presentation_matrix_injective():
    """The presentation matrix has trivial kernel for rank >= 2; a formal
    rank-1 matrix (built directly, below the validated API) does not."""
    failures = []
    cases = 0
    for sphere_dim in EVEN_SPHERES:
        for d in range(2, 13):
            for c in range(-12, 13):
                cases += 1
                ker = kernel(pimsner_matrix(SphereBundleSpec(sphere_dim, d, c)))
                if not ker.is_trivial:
                    failures.append((sphere_dim, d, c, str(ker)))
    # Negative control: with d formally 1 the matrix I - [[1,0],[c,1]]
    # is singular, so the kernel must be nontrivial.
    for c in (-3, 0, 5):
        formal = IntMatrix.identity(2) - IntMatrix.from_rows([[1, 0], [c, 1]])
        if kernel(formal).is_trivial:
            failures.append(("formal d=1 even", c))
    if kernel(IntMatrix.from_rows([[0]])).is_trivial:
        failures.append(("formal d=1 odd",))
    _report(3, failures, f"injectivity: trivial kernel for d >= 2 ({cases} cases), "
                         f"nontrivial for formal d = 1")


def test_criterion_4_odd_spheres_collapse():
    """Over an odd sphere every rank-d spec is one point (nonzero euler is
    refused), all same-rank pairs are isomorphic, and K0 = Z/(d-1)."""
    failures = []
    cases = 0
    for sphere_dim in ODD_SPHERES:
        for d in range(2, 13):
            cases += 1
            spec = SphereBundleSpec(sphere_dim, d)
            try:
                validate(SphereBundleSpec(sphere_dim, d, 1))
                failures.append((sphere_dim, d, "nonzero euler accepted"))
            except OddSphereNonzeroClass:
                pass
            same_rank_specs = [spec]  # the whole fiberwise moduli, by the above
            for a in same_rank_specs:
                for b in same_rank_specs:
                    if not graded_stably_isomorphic(a, b):
                        failures.append((sphere_dim, d, "pair not isomorphic"))
            pair = k_groups(spec)
            if pair.k0 != FgAbGroup.from_factors([d - 1]) or not pair.k1.is_trivial:
                failures.append((sphere_dim, d, str(pair.k0), str(pair.k1)))
    _report(4, failures, f"odd spheres: same-rank specs collapse to one class, "
                         f"K0 = Z/(d-1), K1 = 0 ({cases} cases)")


def test_criterion_5_theorem_coherence():
    """delta1 equality, graded stable isomorphism, and K-class equality agree
    on every pair of the survey grid."""
    failures = []
    specs = [SphereBundleSpec(4, d, c) for d in range(2, 9) for c in range(-8, 9)]
    pairs = 0
    for a in specs:
        for b in specs:
            if a.rank != b.rank:
                continue
            pairs += 1
            d1 = delta1_equal(a, b)
            iso = graded_stably_isomorphic(a, b)
            kc = k_class(a) == k_class(b)
            if not (d1 == iso == kc):
                failures.append((a, b, d1, iso, kc))
    _report(5, failures, f"theorem coherence: delta1 = isomorphism = K-class "
                         f"on {pairs} same-rank pairs, zero discrepancies")


def test_criterion_6_nontriviality_witness():
    """(S4, rank 3, euler 1) is K-theoretically distinct from the trivial
    bundle; at rank 2 K-theory is blind but the classification still
    separates the specs."""
    failures = []
    twisted = SphereBundleSpec(4, 3, 1)
    trivial3 = SphereBundleSpec(4, 3, 0)
    if str(k_groups(twisted).k0) != "Z/4":
        failures.append(("twisted K0", str(k_groups(twisted).k0)))
    if str(k_groups(trivial3).k0) != "Z/2 + Z/2":
        failures.append(("trivial K0", str(k_groups(trivial3).k0)))
    if k_distinguishable(twisted, trivial3) is not True:
        failures.append(("rank 3 should be distinguishable",))
    blind = SphereBundleSpec(4, 2, 1)
    trivial2 = SphereBundleSpec(4, 2, 0)
    if k_distinguishable(blind, trivial2) is not False:
        failures.append(("rank 2 should be K-blind",))
    if graded_stably_isomorphic(blind, trivial2) is not False:
        failures.append(("rank 2 specs should still be non-isomorphic",))
    _report(6, failures, "witness: Z/4 vs Z/2 + Z/2 distinguishable; "
                         "rank-2 pair K-blind yet non-isomorphic")


def test_criterion_7_snf_random_suite():
    """1000 random decompositions are valid; 200 nonsingular 2x2 cokernel
    orders match brute-force coset enumeration."""
    failures = []
    rng = random.Random(20260819)
    started = time.perf_counter()
    for trial in range(1000):
        a = random_int_matrix(rng, max_dim=6, max_entry=50)
        snf = smith_normal_form(a)
        u, d, v = snf.U, snf.D, snf.V
        ok = (
            u @ a @ v == d
            and abs(u.det()) == 1
            and abs(v.det()) == 1
            and is_divisor_chain(snf.diagonal)
            and all(d[i, j] == 0
                    for i in range(d.rows) for j in range(d.cols) if i != j)
        )
        if not ok:
            failures.append(("decomposition", trial, a.to_text()))
    checked = 0
    while checked < 200:
        entries = [rng.randint(-8, 8) for _ in range(4)]
        det = entries[0] * entries[3] - entries[1] * entries[2]
        if det == 0 or abs(det) > 64:
            continue
        checked += 1
        rows = [entries[:2], entries[2:]]
        order = group_order(cokernel(IntMatrix.from_rows(rows)))
        if order != coset_count_2x2(rows):
            failures.append(("coset count", entries, order))
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(("runtime", elapsed))
    _report(7, failures, f"SNF suite: 1000 random decompositions valid, "
                         f"200 cokernel orders match enumeration ({elapsed:.2f}s < 10s)")


def test_criterion_8_word_calculus_suite():
    """Defining relations, ring laws on random triples, grading additivity,
    and invariance under zero-sum rewriting, for 2 to 4 isometries."""
    failures = []
    rng = random.Random(8191)
    started = time.perf_counter()
    for base in (2, 3, 4):
        unit = CuntzElement.unit(base)
        zero = CuntzElement.zero(base)
        for i in range(1, base + 1):
            for j in range(1, base + 1):
                product = generator(base, i).star() * generator(base, j)
                expected = unit if i == j else zero
                if not product.equals(expected):
                    failures.append(("isometry relation", base, i, j))
        resolution = sum(
            (generator(base, i) * generator(base, i).star()
             for i in range(1, base + 1)),
            zero,
        )
        if not resolution.equals(unit):
            failures.append(("unit relation", base))

    for trial in range(500):
        base = rng.choice((2, 3, 4))
        a = random_cuntz_element(rng, base)
        b = random_cuntz_element(rng, base)
        c = random_cuntz_element(rng, base)
        if not ((a * b) * c).equals(a * (b * c)):
            failures.append(("associativity", trial))
        if not (a * (b + c)).equals(a * b + a * c):
            failures.append(("distributivity", trial))

    graded_checked = 0
    for trial in range(200):
        base = rng.choice((2, 3, 4))
        p, q = rng.randint(-2, 2), rng.randint(-2, 2)
        x = random_homogeneous_element(rng, base, p)
        y = random_homogeneous_element(rng, base, q)
        product = x * y
        if x.is_zero or y.is_zero or product.is_zero:
            continue
        graded_checked += 1
        if product.degree() != p + q:
            failures.append(("grading", trial, p, q, product.degree()))
    if graded_checked < 100:
        failures.append(("grading sample too small", graded_checked))

    for trial in range(100):
        base = rng.choice((2, 3, 4))
        x = random_cuntz_element(rng, base)
        mu = tuple(rng.randint(1, base) for _ in range(rng.randint(0, 2)))
        nu = tuple(rng.randint(1, base) for _ in range(rng.randint(0, 2)))
        bracket = CuntzElement.monomial(base, mu, nu)
        resolution = sum(
            (CuntzElement.monomial(base, mu + (i,), nu + (i,))
             for i in range(1, base + 1)),
            CuntzElement.zero(base),
        )
        rewritten = x + (resolution - bracket)  # adds a provably zero element
        if not rewritten.equals(x):
            failures.append(("zero-sum insertion", trial))
        if rewritten == x:  # structural equality must NOT see them as same
            failures.append(("insertion was structurally trivial", trial))
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        failures.append(("runtime", elapsed))
    _report(8, failures, f"word calculus: relations, 500 ring-law triples, "
                         f"{graded_checked} graded pairs, 100 zero-sum rewrites "
                         f"({elapsed:.2f}s < 30s)")
