from fractions import Fraction as F

import pytest

from qzeta import CmSeries, FactoredRatQT, GHPair, QLaurent, QRational, QTPoly, TSeries
from qzeta import serialize
from qzeta.serialize import (
    decode_factored,
    decode_qrational,
    decode_tseries,
    dumps,
    output_document,
)

VALUES = {
    "series": (
        TSeries(3, [QLaurent.one(), QLaurent({1: 1, -1: 1}), QLaurent(), QLaurent({F(1, 2): F(-3, 4)})]),
        decode_tseries,
    ),
    "factored": (
        FactoredRatQT(QTPoly({(0, 0): 1, (1, 1): -1, (F(1, 2), 2): F(2, 3)}), [((1, 1), 2), ((0, 1), 1)]),
        decode_factored,
    ),
    "qrational": (
        QRational(QLaurent({0: 2}), QLaurent({0: 1, -2: -1}) * QLaurent({0: 1, 2: -1})),
        decode_qrational,
    ),
}


@pytest.mark.parametrize("kind", sorted(VALUES))
def test_encode_decode_encode_byte_identical(kind):
    value, decode = VALUES[kind]
    doc = output_document(value, "test", {}, "0")
    text = dumps(doc)
    again = decode(doc["payload"])
    assert again == value
    assert dumps(output_document(again, "test", {}, "0")) == text


def _frac_by_fraction(x) -> list:
    """The encoder that builds a Fraction per number, kept as the oracle of ``serialize._frac``."""
    f = F(x)
    return [f.numerator, f.denominator]


BIG = 2**70 + 3
ORACLE_VALUES = [
    TSeries(3, [
        QLaurent.one(),
        QLaurent({-1: -BIG, 1: BIG, F(1, 2): F(-3, 4)}),
        QLaurent(),
        QLaurent({F(-5, 2): F(BIG, 7), 4: -2}),
    ]),
    CmSeries(2, 2, [QLaurent.one(), QLaurent({0: 3, 2: BIG}), QLaurent({4: 1})]),
    GHPair(2, QTPoly({(0, 0): 1, (F(1, 2), 1): F(-3, 4), (-3, 2): -BIG}), QTPoly({(0, 0): 1, (0, 1): -5})),
    FactoredRatQT(QTPoly({(0, 0): 1, (F(-1, 2), 1): -BIG, (F(3, 2), 2): F(2, 3)}), [((F(1, 2), 1), 2), ((-3, 2), 1)]),
    QRational(QLaurent({F(1, 2): -BIG, 0: F(5, 3)}), QLaurent({0: 1, -2: -1})),
]


@pytest.mark.parametrize("value", ORACLE_VALUES, ids=lambda v: type(v).__name__)
def test_writer_matches_the_fraction_oracle(value, monkeypatch):
    text = dumps(output_document(value, "test", {"n": 1}, "0"))
    monkeypatch.setattr(serialize, "_frac", _frac_by_fraction)
    assert dumps(output_document(value, "test", {"n": 1}, "0")) == text
