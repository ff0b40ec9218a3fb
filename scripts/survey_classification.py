#!/usr/bin/env python3
"""Survey the classification landscape over a (rank, euler) grid.

For each rank d and euler parameter c on a fixed even sphere the script
computes the K-groups of the bundle algebra two ways:

* from the presentation matrix (its invariant factors, found modulo a
  nonzero minor), and
* from the closed form Z/g + Z/((d-1)^2 / g) with g = gcd(d-1, c),

and confirms they agree.  It then counts, for each rank, how many
distinct isomorphism classes the euler range realizes and how many of
them K-theory alone can tell apart from the trivial bundle.

Run:  python3 scripts/survey_classification.py --sphere 4 --d-max 8 --c-max 10
"""

import argparse
import sys
from math import gcd
from pathlib import Path

# Prefer the checkout's own package over any installed copy.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spherecp import (  # noqa: E402
    FgAbGroup,
    SphereBundleSpec,
    classify_report,
    graded_stably_isomorphic,
    k_distinguishable,
)


def closed_form_k0(rank: int, euler: int) -> FgAbGroup:
    g = gcd(rank - 1, euler)  # >= 1 whenever rank >= 2
    return FgAbGroup.from_factors([g, (rank - 1) ** 2 // g])


def survey(sphere: int, d_max: int, c_max: int) -> int:
    mismatches = 0
    print(f"sphere dimension {sphere}, ranks 2..{d_max}, euler 0..{c_max}")
    print(f"{'d':>3} {'c':>4} {'gcd':>4}  {'K0 (matrix route)':<22} {'closed form':<22} {'K-visible':>9}")
    for d in range(2, d_max + 1):
        for c in range(0, c_max + 1):
            report = classify_report(SphereBundleSpec(sphere, d, c))
            computed = report.k_groups.k0
            predicted = closed_form_k0(d, c)
            agree = computed == predicted
            mismatches += not agree
            visible = report.k_distinguishable_from_trivial
            print(f"{d:>3} {c:>4} {gcd(d - 1, c):>4}  {str(computed):<22}"
                  f" {str(predicted):<22} {'yes' if visible else 'no':>9}"
                  f"{'' if agree else '   << MISMATCH'}")
    return mismatches


def class_counts(sphere: int, d_max: int, c_max: int) -> None:
    print("\nisomorphism classes realized by euler parameters in "
          f"[-{c_max}, {c_max}] (graded, stable):")
    for d in range(2, d_max + 1):
        specs = [SphereBundleSpec(sphere, d, c) for c in range(-c_max, c_max + 1)]
        classes: list[SphereBundleSpec] = []
        for s in specs:
            if not any(graded_stably_isomorphic(s, r) for r in classes):
                classes.append(s)
        trivial = SphereBundleSpec(sphere, d, 0)
        blind = sum(
            1 for s in classes
            if not graded_stably_isomorphic(s, trivial)
            and not k_distinguishable(s, trivial)
        )
        print(f"  rank {d}: {len(classes)} classes, "
              f"{blind} nontrivial ones invisible to K-theory")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sphere", type=int, default=4, help="even sphere dimension")
    parser.add_argument("--d-max", type=int, default=8, help="largest rank")
    parser.add_argument("--c-max", type=int, default=10, help="largest euler parameter")
    args = parser.parse_args()

    mismatches = survey(args.sphere, args.d_max, args.c_max)
    class_counts(args.sphere, args.d_max, args.c_max)
    print(f"\nclosed-form agreement: {'OK' if mismatches == 0 else f'{mismatches} MISMATCHES'}")
    raise SystemExit(0 if mismatches == 0 else 1)


if __name__ == "__main__":
    main()
