"""The benchmark tracer still finds, times and restores what it wraps.

The tracer (``bench/tracer.py``) resolves each ``LAYERS`` entry by name when
``bench/run.py --trace 1`` starts; a renamed or removed function would only
show there as a ``KeyError``.  These tests make it a test failure instead,
and run the Nichols ladder, ``sym_subspace_dims`` and the R-matrix criterion
under the tracer: the results must not change, ``sparse_int_rank`` must see
rows and rank, the ladder's row pulls must be timed inside
``braided.extend``, and every binding must be put back.  The (q, t) layers get the same check on a fit, a closed
form expansion and the property criterion, which reach ``QTPoly.__mul__``,
``FactoredRatQT.expand`` and ``TSeries.__mul__``.
"""

import pytest

from bench.tracer import (
    CANDIDATE_ROWS,
    LAYERS,
    Tracer,
    _holders,
    _import_all,
    _resolve,
    layer_metrics,
    traced,
)


@pytest.mark.parametrize("name,module,qualname", LAYERS, ids=[layer[0] for layer in LAYERS])
def test_traced_function_resolves(name, module, qualname):
    assert callable(_resolve(module, qualname)), name


def _traced_bindings() -> dict:
    """{(holder, attribute): function} for every binding of a traced function in qzeta."""
    originals = {id(_resolve(module, qualname)) for _name, module, qualname in LAYERS}
    return {
        (holder, attr): value
        for holder in _holders(_import_all())
        for attr, value in vars(holder).items()
        if id(value) in originals
    }


def _ladder_and_rmatrix():
    import qzeta
    import qzeta.verify

    return (list(qzeta.hilbert_dims(qzeta.transposition_class(4), 4)),
            [qzeta.sym_subspace_dims(n, j) for n in range(2, 5) for j in range(6)],
            qzeta.verify.crit_04_rmatrix_oracle())


def test_tracing_the_ladder_and_rmatrix_keeps_results_and_restores_every_binding():
    plain = _ladder_and_rmatrix()
    before = _traced_bindings()
    tracer = Tracer()
    with traced(tracer) as patched:
        assert {(holder, attr) for holder, attr, _original in patched} == set(before)
        assert all(vars(holder)[attr] is not fn for (holder, attr), fn in before.items())
        got = _ladder_and_rmatrix()
    assert got == plain
    after = _traced_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is fn for key, fn in before.items())

    metrics = layer_metrics(tracer)
    assert metrics["linalg.sparse_int_rank.rows_in"] >= metrics["linalg.sparse_int_rank.rank"] > 0
    # n = 2..4, j = 0..5 called directly; crit 04 walks rmatrix._sym_levels instead
    assert metrics["rmatrix.sym_subspace_dims.calls"] == 18
    pulls = [i for i, span in enumerate(tracer.spans) if span[0] == CANDIDATE_ROWS]
    assert pulls and all(tracer.inside(i, "braided.extend") for i in pulls)
    assert metrics["braided.candidate_rows.self_s"] > 0


def _qt_layers():
    import qzeta
    import qzeta.verify

    return qzeta.fit_gh(5), qzeta.zeta_cn_closed(4).expand(10), qzeta.verify.crit_14_property_suites()


def test_tracing_the_qt_layers_keeps_results_and_restores_every_binding():
    plain = _qt_layers()
    before = _traced_bindings()
    tracer = Tracer()
    with traced(tracer) as patched:
        assert {(holder, attr) for holder, attr, _original in patched} == set(before)
        got = _qt_layers()
    assert got == plain
    after = _traced_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is fn for key, fn in before.items())

    metrics = layer_metrics(tracer)
    for layer in ("qtpoly.mul", "qtpoly.expand", "tseries.mul"):
        assert metrics[f"{layer}.calls"] > 0, layer
