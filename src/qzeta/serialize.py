"""Canonical JSON serialization of library values.

Exponents and coefficients are serialized as exact [numerator, denominator]
pairs, written from their canonical form: the library holds every such
number as an int or as a Fraction that is not integral, so an int n is
written [n, 1] and a Fraction as its own numerator and denominator, with no
conversion per number.  Term lists are ordered ascending by t-degree, then
ascending by q-exponent, so re-parsing and re-serializing a document is
byte-identical.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .braided import BraidedSet, GradedDims
from .qlaurent import QLaurent
from .qrational import QRational
from .qtpoly import FactoredRatQT, QTPoly
from .sl2 import Sl2Decomposition
from .tseries import TSeries
from .zeta_engine import CmSeries, GHPair


def _frac(x) -> list:
    """[numerator, denominator] of a canonical number: an int, or a Fraction in lowest terms."""
    return [x, 1] if type(x) is int else [x.numerator, x.denominator]


def encode_qlaurent(p: QLaurent) -> dict:
    return {"terms": [[_frac(e), _frac(c)] for e, c in sorted(p.items())]}


def decode_qlaurent(obj) -> QLaurent:
    return QLaurent({Fraction(*e): Fraction(*c) for e, c in obj["terms"]})


def encode_tseries(s: TSeries) -> dict:
    return {"order": s.order, "coefficients": [encode_qlaurent(c) for c in s.coeffs()]}


def decode_tseries(obj) -> TSeries:
    return TSeries(obj["order"], [decode_qlaurent(c) for c in obj["coefficients"]])


def encode_qtpoly(p: QTPoly) -> dict:
    terms = sorted(p.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    return {"terms": [[_frac(a), b, _frac(c)] for (a, b), c in terms]}


def decode_qtpoly(obj) -> QTPoly:
    return QTPoly({(Fraction(*a), b): Fraction(*c) for a, b, c in obj["terms"]})


def encode_factored(f: FactoredRatQT) -> dict:
    return {
        "numerator": encode_qtpoly(f.numerator),
        "factors": [[_frac(a), b, mult] for (a, b), mult in f.factors],
    }


def decode_factored(obj) -> FactoredRatQT:
    return FactoredRatQT(
        decode_qtpoly(obj["numerator"]),
        [((Fraction(*a), b), mult) for a, b, mult in obj["factors"]],
    )


def encode_qrational(r: QRational) -> dict:
    return {"numerator": encode_qlaurent(r.num), "denominator": encode_qlaurent(r.den)}


def decode_qrational(obj) -> QRational:
    return QRational(decode_qlaurent(obj["numerator"]), decode_qlaurent(obj["denominator"]))


def encode_decomposition(d: Sl2Decomposition) -> dict:
    return {"parts": [[m, mult] for m, mult in d.parts.items()]}


def encode_graded_dims(g: GradedDims) -> dict:
    return {
        "dims": list(g.dims),
        "requested_degree": g.requested_degree,
        "complete": g.complete,
    }


def encode_gh_pair(gh: GHPair) -> dict:
    return {"m": gh.m, "g": encode_qtpoly(gh.g), "h": encode_qtpoly(gh.h)}


def encode_cm_series(c: CmSeries) -> dict:
    return {"m": c.m, "order": c.order, "coefficients": [encode_qlaurent(x) for x in c.table]}


def encode_payload(value):
    """Dispatch to the right encoder, returning (kind, payload)."""
    if isinstance(value, TSeries):
        return "series", encode_tseries(value)
    if isinstance(value, CmSeries):
        return "series", encode_cm_series(value)
    if isinstance(value, FactoredRatQT):
        return "rational", encode_factored(value)
    if isinstance(value, QRational):
        return "rational", encode_qrational(value)
    if isinstance(value, QTPoly):
        return "rational", {"numerator": encode_qtpoly(value), "factors": []}
    if isinstance(value, QLaurent):
        return "rational", {"numerator": encode_qlaurent(value), "denominator": encode_qlaurent(QLaurent.one())}
    if isinstance(value, Sl2Decomposition):
        return "decomposition", encode_decomposition(value)
    if isinstance(value, GradedDims):
        return "graded_dims", encode_graded_dims(value)
    if isinstance(value, GHPair):
        return "rational", encode_gh_pair(value)
    if isinstance(value, BraidedSet):
        return "braided_set", json.loads(value.to_json())
    raise TypeError(f"no canonical encoding for {type(value).__name__}")


def output_document(value, command: str, parameters: dict, version: str) -> dict:
    kind, payload = encode_payload(value)
    return {
        "kind": kind,
        "payload": payload,
        "metadata": {"command": command, "parameters": parameters, "version": version},
    }


def dumps(doc: dict) -> str:
    """Canonical text: sorted keys, fixed separators."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
