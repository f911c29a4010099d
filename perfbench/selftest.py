"""Self-test of the benchmark's validators: each must count a wrong answer.

Usage (from the repository root):  python3 perfbench/selftest.py

For every workload it builds one right answer, checks that the validator
accepts it, then hands the validator wrong answers and checks that
count_failures records each as a failed op:

  report-cli-d6   a report with one failed section; one golden status flipped
  exact-basis     an exact sphere norm perturbed by 1/10^9
  fourier-stream  a Fourier coefficient off by 1e-6 relative

Exit status 0 when every validator behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cases():
    """(name, validate, right answer, wrong answers) per workload."""
    import numpy as np

    import workloads as w

    goldens = w.load_goldens(ROOT)
    report = {"passed": True, "failed_sections": [],
              "taylor": {"permutation_oracle_match": True},
              "closed_form_agreement": copy.deepcopy(goldens)}
    failed_section = dict(report, passed=False, failed_sections=["gram"])
    flipped = copy.deepcopy(report)
    entry = flipped["closed_form_agreement"]["axial"]["variants"]["binomial-falling"]["entries"][0]
    entry["status"] = "disagree" if entry["status"] == "agree" else "agree"
    yield ("report-cli-d6", lambda doc: w.check_report(doc, goldens), report,
           {"one failed section": failed_section, "one golden status flipped": flipped})

    item = [3, "Y", 2]
    exact = w.exact_op(item)
    off = dict(exact, norm_sq=str(Fraction(exact["norm_sq"]) + Fraction(1, 10**9)))
    yield ("exact-basis", lambda out: w.check_exact(item, out), exact,
           {"norm off by 1/10^9": off})

    doc, known = w.fourier_request(np.random.default_rng(0), 3)
    answer = w.fourier_op(doc)
    key = max(known, key=lambda k: abs(known[k]))
    coeffs = dict(answer["coefficients"])
    coeffs[key] *= 1 + 1e-6
    yield ("fourier-stream", lambda out: w.check_fourier(known, out), answer,
           {"coefficient off by 1e-6 relative": dict(answer, coefficients=coeffs)})


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as w

    ok = True
    for name, validate, right, wrongs in cases():
        attempted, failed, _ = w.count_failures([(None, validate(right))])
        good = (attempted, failed) == (1, 0)
        print(f"{'ok  ' if good else 'FAIL'} {name}: right answer accepted")
        ok &= good
        for label, wrong in wrongs.items():
            attempted, failed, notes = w.count_failures([(None, validate(wrong))])
            good = (attempted, failed) == (1, 1)
            print(f"{'ok  ' if good else 'FAIL'} {name}: {label} counted as failed"
                  f" ({'; '.join(notes) or 'not detected'})")
            ok &= good
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
