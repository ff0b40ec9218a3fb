#!/usr/bin/env python3
"""Decide a batch of identities in the isometry word calculus.

Each identity is written as two expressions; the calculus reduces both to
reduced words and, where they differ, compares their normal forms in the
Leavitt basis: the monomials s_mu s_nu* whose mu and nu do not both end in
the last generator sd (Alahmadi, Alsulami, Jain, Zelmanov, J. Algebra Appl.
11 (2012)).  The defining relation sum(s_i s_i*) = 1 rewrites every other
monomial into that basis.  The point of the demo: equalities that hold only
*because of* that relation (not term by term) are decided exactly, with
rational coefficients.

Run:  python3 scripts/word_identities.py [--d 3]
"""

import argparse
import sys
from pathlib import Path

# Prefer the checkout's own package over any installed copy.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spherecp import parse_expression  # noqa: E402


IDENTITIES = [
    # name, left (its text, or a function of d that writes it), right, expected verdict
    ("isometry relation", "s1* s1", "1", True),
    ("orthogonality", "s1* s2", "0", True),
    ("range projections are idempotent", "s1 s1* s1 s1*", "s1 s1*", True),
    ("unit resolution", lambda d: " + ".join(f"s{i} s{i}*" for i in range(1, d + 1)), "1", True),
    # the unit resolution applied twice: s_i s_j s_j* s_i* over all d^2 pairs
    ("refined unit resolution (depth 2)",
     lambda d: " + ".join(f"s{i} s{j} s{j}* s{i}*" for i in range(1, d + 1) for j in range(1, d + 1)), "1", True),
    ("partial sum is not the unit", "s1 s1*", "1", False),
    ("left shift absorbs a letter", "s1* s1 s2", "s2", True),
    ("orthogonal projections annihilate", "s1 s1* s2 s2*", "0", True),
    ("scalar arithmetic", "1/2 s1 + 1/2 s1", "s1", True),
]


def build_cases(d: int):
    for name, left, right, expected in IDENTITIES:
        left = left(d) if callable(left) else left
        yield name, parse_expression(d, left), parse_expression(d, right), expected


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--d", type=int, default=3, help="number of isometries (>= 2)")
    args = parser.parse_args()
    d = args.d

    print(f"word calculus on {d} isometries\n")
    bad = 0
    for name, left, right, expected in build_cases(d):
        verdict = left.equals(right)
        ok = verdict is expected
        bad += not ok
        print(f"  {'OK ' if ok else 'BUG'}  {name:<38} equal={'yes' if verdict else 'no'}"
              f"  [{left} | {right}]")

    print("\ngauge grading of x = s1 + 2 s1 s2* s1* + 3 s2 s2*:")
    x = parse_expression(d, "s1 + 2 s1 s2* s1* + 3 s2 s2*")
    for k in (-1, 0, 1):
        print(f"  degree {k:+d} component: {x.spectral_component(k)}")
    print(f"  overall degree: {x.degree()} (None = mixed degrees)")
    raise SystemExit(0 if bad == 0 else 1)


if __name__ == "__main__":
    main()
