from fractions import Fraction as F

import pytest

from qzeta import FactoredRatQT, QLaurent, QRational, QTPoly, TSeries
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
