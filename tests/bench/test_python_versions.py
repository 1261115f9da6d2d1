"""The paper results must be the same bits on every supported Python.

CPython 3.12 made the builtin ``sum`` of floats compensated (Neumaier
summation); 3.10 and 3.11 add left to right. The committed results are
3.11 values, so every modelled float reduction folds left explicitly
(:func:`repro.utils.fold.left_sum`). The digest below is checked on the
running interpreter (CI runs 3.10, 3.11 and 3.12) and, on any
interpreter, with ``sum`` replaced by an emulation of 3.12's.
"""

import builtins
import hashlib
import json
import math

from repro.utils.fold import left_sum

#: sha256 of ``json.dumps(results_json(), sort_keys=True)``
RESULTS_DIGEST = "587faa599258472585044a18eff86268dfad7d8c702d2ad4b7f654e11730ba19"


def sum_312(iterable, /, start=0):
    """CPython 3.12's builtin ``sum``: an exact fast path for ints, then a
    float fast path with Neumaier compensation, then plain ``+``."""
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) is int or type(item) is bool:
                result += item
                continue
            result = result + item
            break
    if type(result) is float:
        total, comp = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    comp += (total - t) + item
                else:
                    comp += (item - t) + total
                total = t
                continue
            if isinstance(item, int) and -(2**63) <= item < 2**63:
                total += float(item)
                continue
            if comp and math.isfinite(comp):
                total += comp
            result = total + item
            break
        else:
            if comp and math.isfinite(comp):
                total += comp
            return total
    for item in items:
        result = result + item
    return result


def _digest(results) -> str:
    return hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()


def test_emulation_is_compensated():
    assert sum_312([0.1] * 10) == 1.0
    assert left_sum([0.1] * 10) == 0.9999999999999999
    assert sum_312([1, 2, True]) == 4
    assert sum_312([], 0.5) == 0.5


def test_paper_results_digest(paper_results):
    assert _digest(paper_results) == RESULTS_DIGEST


def test_results_digest_under_compensated_sum(monkeypatch):
    from repro.bench.experiments import results_json

    monkeypatch.setattr(builtins, "sum", sum_312)
    assert _digest(results_json()) == RESULTS_DIGEST
