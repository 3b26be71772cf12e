"""No classifier escapes: the universal bound at desk scale.

The claim is universal - for EVERY classifier, every interesting class
loses all but a 2 exp(-2c^2) fraction of its images to count-norm
perturbations of size c*sqrt(h)*n + 2.  At desk scale we can enumerate
whole image spaces and check it against a battery of classifiers,
including ones built to be robust (sum threshold, linear thresholds).
Each battery is one batch: the complements of all its classes expand
together, packed side by side in one bitset.
"""

from robustness_envelope import robustness as rb
from robustness_envelope.classifiers import random_classifier, sum_classifier
from robustness_envelope.image_space import SpaceParams
from robustness_envelope.verify import classifier_zoo

params = SpaceParams(2, 1, 2)
print(f"=== universal bound on (2,1,2): {params.total_images} images ===")
print(f"{'classifier':>14} {'class':>5} {'c':>5} {'budget':>6} "
      f"{'robust frac':>11} {'bound':>8} {'margin':>8}")
for report in rb.theorem1_reports(classifier_zoo(params), [0.5, 0.75, 1.0]):
    for e in report.entries:
        print(f"{report.classifier:>14} {e.label:>5} {e.c:>5.2f} {e.budget:>6} "
              f"{float(e.fraction):>11.4f} {e.bound:>8.4f} {e.margin:>8.4f}")
    assert report.all_hold

print()
print("A thousand seeded balanced classifiers on (2,1,1), worst margin:")
small = SpaceParams(2, 1, 1)
worst = float("inf")
balanced = (random_classifier(small, 2, "balanced", seed) for seed in range(1000))
for report in rb.theorem1_reports(balanced, [0.5, 0.75, 1.0]):
    assert report.all_hold
    worst = min(worst, min(e.margin for e in report.entries))
print(f"  all hold; minimum margin {worst:.4f}")

print()
print("Even the deliberately robust sum classifier obeys the bound:")
report = rb.theorem1_holds(sum_classifier(small), [0.5, 0.75, 1.0])
for e in report.entries:
    print(f"  c={e.c}: count-norm budget {e.budget}, robust fraction "
          f"{float(e.fraction):.4f} < {e.bound:.4f}")
