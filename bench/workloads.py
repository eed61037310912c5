"""The four benchmark workloads: inputs from a seed, operations, and their checks.

Each workload is a ``setup(seed)`` that imports qzeta and builds the inputs
and references (timed as set-up), returning the operations to run in order
plus the references; and a ``judge(refs, outputs)`` that checks every output
against an independent reference.  Operations look qzeta functions up by
attribute when they run, exactly as the CLI handlers do, so a traced run sees
every call.

The seed draws the order of the operations from a fixed pool.  The pool is
the same for every seed, so a pass costs the same whatever the seed, and the
spread between runs measures the machine, not the draw.  See README.md for
why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Callable, NamedTuple

PINS_PATH = Path(__file__).with_name("pins.json")

SERIES_ORDER = 30
SERIES_N = range(1, 7)
SERIES_M = range(2, 7)
FIT_M = (5, 6, 8)
NICHOLS_X4_DEGREE = 7
NICHOLS_X4_BUDGET = 6**7  # above qzeta's default budget of 100,000
NICHOLS_X5_DEGREE = 5


def _shuffled(ops, seed):
    ops = list(ops)
    random.Random(seed).shuffle(ops)
    return ops


# -- series: q-series arithmetic ------------------------------------------------


def series_setup(seed):
    import qzeta

    o = SERIES_ORDER
    ops = []
    for n in SERIES_N:
        ops.append((f"zeta_cn_series({n},{o})", lambda n=n: qzeta.zeta_cn_series(n, o)))
        ops.append((f"zeta_cn_closed({n}).expand({o})", lambda n=n: qzeta.zeta_cn_closed(n).expand(o)))
    for m in SERIES_M:
        ops.append((f"cm_series_cs({m},{o})", lambda m=m: qzeta.cm_series_cs(m, o)))
        ops.append((
            f"cm_from_zeta({m},{o})",
            lambda m=m: qzeta.cm_from_zeta(m, qzeta.zeta_vm_closed(m).expand(o)),
        ))
        ops.append((
            f"cm_recursion_step({m},{o})",
            lambda m=m: qzeta.cm_recursion_step(m, qzeta.cm_series_cs(m - 2, o), o),
        ))
    return _shuffled(ops, seed), None


def series_judge(_refs, outputs):
    """Cross-route equality: q-binomial vs closed product; CS vs extraction vs recursion."""
    o = SERIES_ORDER
    out = {}
    for n in SERIES_N:
        a, b = f"zeta_cn_series({n},{o})", f"zeta_cn_closed({n}).expand({o})"
        same = a in outputs and b in outputs and outputs[a] == outputs[b]
        err = None if same else f"series route disagrees with closed product at n={n}"
        for label in (a, b):
            if label in outputs:
                out[label] = (outputs[label], err)
    for m in SERIES_M:
        labels = (f"cm_series_cs({m},{o})", f"cm_from_zeta({m},{o})", f"cm_recursion_step({m},{o})")
        values = [outputs.get(label) for label in labels]
        same = all(v is not None for v in values) and values[0] == values[1] == values[2]
        err = None if same else f"c_m routes disagree at m={m}"
        for label, value in zip(labels, values):
            if value is not None:
                out[label] = (value, err)
    return out


# -- fit: the (g_m, h_m) functional-equation pairs ------------------------------


def fit_setup(seed):
    import qzeta
    from qzeta.refdata import reference_gh

    refs = {m: reference_gh(m) for m in FIT_M if m in (5, 6)}
    ops = [(f"fit_gh({m})", lambda m=m: qzeta.fit_gh(m)) for m in FIT_M]
    return _shuffled(ops, seed), refs


def fit_judge(refs, outputs):
    """m = 5, 6 against data/closed_forms.json; others by the functional equation and Lemma 4.6."""
    import qzeta

    out = {}
    for m in FIT_M:
        label = f"fit_gh({m})"
        if label not in outputs:
            continue
        gh = outputs[label]
        if m in refs:
            ok = gh.g == refs[m].g and gh.h == refs[m].h
            err = None if ok else f"fitted (g_{m}, h_{m}) differ from the quoted pair"
        else:
            eta = qzeta.eta_m(m)
            t_deg = gh.g.t_degree() - gh.h.t_degree() - eta.t_degree()
            if not qzeta.verify_functional_eq(m, gh):
                err = f"functional equation fails for m={m}"
            elif gh.g.q_degree() - eta.q_degree() != -2:
                err = f"Lemma 4.6 q-degree fails for m={m}"
            elif t_deg != -(m + 1):
                err = f"Lemma 4.6 t-degree {t_deg} != {-(m + 1)} for m={m}"
            else:
                err = None
        out[label] = (gh, err)
    return out


# -- nichols: Fomin-Kirillov Hilbert series --------------------------------------


def nichols_setup(seed):
    import qzeta

    x4, x5 = qzeta.transposition_class(4), qzeta.transposition_class(5)
    refs = {
        k: [int(c.coeff(0)) for c in qzeta.fk_reference_series(k).t_coeff_list()] for k in (4, 5)
    }
    ops = [
        (
            f"hilbert_dims(X_4,{NICHOLS_X4_DEGREE})",
            lambda: qzeta.hilbert_dims(x4, NICHOLS_X4_DEGREE, budget=NICHOLS_X4_BUDGET),
        ),
        (f"hilbert_dims(X_5,{NICHOLS_X5_DEGREE})", lambda: qzeta.hilbert_dims(x5, NICHOLS_X5_DEGREE)),
    ]
    return _shuffled(ops, seed), refs


def nichols_judge(refs, outputs):
    """Against the quoted Fomin-Kirillov products; a partial result is a failure."""
    out = {}
    for k, degree in ((4, NICHOLS_X4_DEGREE), (5, NICHOLS_X5_DEGREE)):
        label = f"hilbert_dims(X_{k},{degree})"
        if label not in outputs:
            continue
        dims = outputs[label]
        if not dims.complete:
            err = f"partial result: reached degree {dims.achieved_degree} of {degree}"
        elif list(dims) != refs[k][: degree + 1]:
            err = f"X_{k} dimensions {list(dims)} differ from the Fomin-Kirillov product"
        else:
            err = None
        out[label] = (dims, err)
    return out


# -- verify: the acceptance suite --------------------------------------------------


def verify_setup(_seed):
    import qzeta.verify

    return [("run_suite(all)", lambda: qzeta.verify.run_suite("all"))], None


def verify_judge(_refs, outputs):
    """One item per acceptance criterion; each must pass."""
    out = {}
    for r in outputs.get("run_suite(all)", []):
        err = None if r.passed else f"criterion {r.number} failed: {r.detail}"
        out[f"crit_{r.number:02d}"] = ([r.number, r.name, r.suite, r.passed], err)
    return out


class Workload(NamedTuple):
    setup: Callable
    judge: Callable


WORKLOADS = {
    "series": Workload(series_setup, series_judge),
    "fit": Workload(fit_setup, fit_judge),
    "nichols": Workload(nichols_setup, nichols_judge),
    "verify": Workload(verify_setup, verify_judge),
}


def digest(value) -> str:
    """sha256 of the canonical qzeta serialization of one output."""
    from qzeta import serialize

    if isinstance(value, list):
        text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    else:
        kind, payload = serialize.encode_payload(value)
        text = serialize.dumps({"kind": kind, "payload": payload})
    return hashlib.sha256(text.encode()).hexdigest()


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def judge(workload: str, refs, outputs: dict, raised: dict, pins: dict) -> dict:
    """{item: error or None} over every checked item of one pass.

    An item fails when its operation raised, when it disagrees with its
    reference, or when its canonical serialization differs from the pinned
    sha256 (so a faster route must be bit-identical).
    """
    verdict = {label: f"raised {exc!r}" for label, exc in raised.items()}
    checked = WORKLOADS[workload].judge(refs, outputs)
    for item, (value, err) in checked.items():
        if err is None and pins.get(item) != digest(value):
            err = "output differs from its pinned sha256"
        verdict[item] = err
    return verdict
