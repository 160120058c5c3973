"""Command-line front end: model files, pipeline subcommands and demos.

Model files are JSON with the shape

    {"sites": [{"id": 1, "dim": 2}, ...],
     "edges": [[1, 2], ...],
     "terms": [{"support": [1, 2], "pauli": "Z Z", "coeff": 1.0},
               {"support": [1, 2], "words": [{"pauli": "Z Z", "coeff": 1.0},
                                             {"pauli": "X I", "coeff": 0.4}]},
               {"support": [3], "matrix": {"re": [[..]], "im": [[..]]},
                "coeff": [0.5, 0.0]}],
     "beta": 1.0}

Pauli letters map positionally onto the (sorted) support sites, which must
all be qubits with ids 0 <= id < 2**20.  A ``words`` term is one sum of
such words on a shared support, each word's ``coeff`` times the term's;
``save_model`` writes a Pauli sum of several words that way, so it stays
symbolic.  Matrix terms are row-major with separate real and imaginary
parts, scaled by ``coeff``; ``im`` (optional) has the shape of ``re``.
Every number in a model file (coefficients, matrix entries, ``beta``)
must be a finite JSON number, and the terms must pass the rule
``markov.ModelInstance`` applies to every model.  The loader decodes each
term once and leaves its admission, a matrix term's Hermitian check
included, to ``ModelInstance``.

``decompose`` and ``cumulants`` take the local route (``"route":
"local"`` in the report): the cumulants of beta H, or with ``cumulants
--of log-gibbs`` (the default) of log rho = beta H - log Z 1, are built
from the model's terms on their own supports, exact and with no
positivity floor, at any system size.  The two differ only in the
empty-support (scalar) component.  ``decompose`` regroups beta H, log rho
up to its scalar, which cancels in rho = e^{H'} / Tr e^{H'}: its residual
and support checks are relative to ||beta H||, and its output is the same
at every size.  Only -log Z needs the spectrum of H
(``markov.log_partition``, which needs no d x d matrix for diagonal or
commuting terms).  It is computed inside the dense cap, and for a diagonal
model up to the cap squared; past that the ``cumulants --of log-gibbs``
report says ``"scalar_computed": false``.

Model files are read and written by ``orjson``.  ``generate`` and
``decompose --out`` write them through ``save_model``: compact JSON on one
line, each number in the shortest form that reads back to the same float
(``0.00001`` for 1e-05), parsed back bit for bit.  Text that orjson
refuses (NaN, Infinity, a number past the float range, a lone surrogate,
a syntax error) is read again by stdlib ``json``, so it gets the same
field check or line-numbered message as ever.  Integers must fit 64 bits
(site ids included): a larger one parses as a float and fails its field's
integer check.  Reports keep ``json``'s text (``"key": value``).
Reports echo the tolerances they used: ``classify`` its ``route``
(``symbolic`` for Pauli terms, else ``dense``), the ``rtol`` that route
applied (0.0 for ``symbolic``, which holds commutators to exact
cancellation, else ``--rtol``) and ``search_cap``
(``decompose.SPLIT_SEARCH_CAP``), ``decompose`` its
``tolerance`` and ``support_rtol``, ``cumulants`` its ``rtol``.
``classify`` searches groupings per noncommutation component, on the
spanning partitions of the component's own region (the union of its term
supports), so the partition enumeration cap and the dense cap bound a
region, not the whole model.

``verify-markov`` answers by certificate before it builds any state: an
all-Pauli model that ``classify`` finds LocalCommuting or
ShieldCommutingOnly, or a model with dense terms that ``classify``'s
pairwise stage finds LocalCommuting, has every CMI 0 on every shielding
partition at once (see ``decompose.py``), and the report says ``"route":
"certificate"``.  It lists, with CMI 0.0, the spanning partitions that
``classify`` regrouped, and none for a LocalCommuting model, whatever
``--partitions`` says; so it answers past the partition enumeration caps
and, for a LocalCommuting model, past the dense cap too, as long as no
component region passes them.  The report's ``rtol`` is the commutator
tolerance that decided it: 0.0 for Pauli terms, whose commutators cancel
exactly, else ``decompose.DEFAULT_RTOL``, to which the 0.0 holds.  Every
other model, and ``--route dense``, takes the dense CMI sweep over the
``--partitions`` mode's partitions (``"route": "dense"``).
Tolerance options (``--tol``, ``--rtol``, ``--support-rtol``) take finite
numbers above zero, and ``--max-support`` an integer >= 0.

Exit codes: 0 when the command's claim holds, 2 when it fails (not Markov,
not decomposable, off-clique weight, NotShieldCommuting), 1 on usage or
data errors, 3 when a valid input hit a limit and got no verdict (the
dense cap, the partition enumeration cap on a component region, the
grouping enumeration cap, a state below the positivity floor).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import re
import sys
from typing import Any, Sequence

import numpy as np
import orjson

from . import cumulants, decompose, families, markov
from .cumulants import model_cumulants, verify_clique_support
from .decompose import (
    NOT_SHIELD_COMMUTING,
    classify,
    coarse_grain_model,
    theorem4_decompose,
    verify_gibbs,
)
from .errors import (
    DecompositionResidualError,
    DenseCapError,
    EnumerationCapError,
    ModelFormatError,
    NonHermitianError,
    NotMarkovError,
    NotTriangleFreeError,
    PositivityViolationError,
    QmnError,
)
from .graphs import Graph, to_dot
from .markov import MarkovReport, ModelInstance, gibbs, is_markov_network
from .pauli import QUBIT_ID_LIMIT, PauliSum, PauliTerm, commutator
from .tensor import SiteSpace, SupportedOperator

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_FAIL = 2
EXIT_LIMIT = 3

# a Pauli letter, in either case -> (x bit, z bit) of its qubit
_LETTER_BITS = {c: bits for letter, bits in
                (("I", (0, 0)), ("X", (1, 0)), ("Y", (1, 1)), ("Z", (0, 1)))
                for c in (letter, letter.lower())}


# ---------------------------------------------------------------------------
# model file serialization

def _is_int(x: Any) -> bool:
    """A JSON integer: ``true`` and ``false`` load as bools, which Python
    counts as ints."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_finite_number(x: Any) -> bool:
    try:
        return (_is_int(x) or isinstance(x, float)) and math.isfinite(x)
    except OverflowError:  # an integer past the float range
        return False


def _coeff_from_json(raw: Any, where: str) -> complex:
    parts = raw if isinstance(raw, list) and len(raw) == 2 else [raw]
    if not all(map(_is_finite_number, parts)):
        raise ModelFormatError(
            f"{where}.coeff must be a finite real number or [re, im]")
    return complex(*parts)


def _word_from_json(text: Any, coeff: float, qubits: list[int], where: str
                    ) -> PauliTerm:
    """One Pauli word, its letters placed positionally on the support sites
    (``qubits`` holds each site's bit) and read straight into the masks."""
    if not isinstance(text, str):
        raise ModelFormatError(f"{where}.pauli must be a string of letters")
    tokens = text.split()
    if len(tokens) != len(qubits):
        raise ModelFormatError(
            f"{where}.pauli has {len(tokens)} letters for {len(qubits)} "
            f"support sites")
    x = z = 0
    for bit, tok in zip(qubits, tokens):
        try:
            bx, bz = _LETTER_BITS[tok]
        except KeyError:
            raise ModelFormatError(f"{where}.pauli: unknown letter {tok!r}") from None
        x |= bit * bx
        z |= bit * bz
    return PauliTerm(coeff, x, z)


def _matrix_from_json(block: dict, d: int, where: str) -> np.ndarray:
    """The d x d complex matrix of a term's ``re`` and (optional) ``im``
    parts, read into one array: entries are finite JSON numbers and ``im``
    has the shape of ``re``."""
    try:
        m = np.array(block["re"], dtype=complex)
        im = np.array(block["im"], dtype=float) if "im" in block else None
    except (TypeError, ValueError, OverflowError):
        raise ModelFormatError(f"{where}.matrix entries must be numeric arrays") from None
    if m.shape != (d, d):
        raise ModelFormatError(
            f"{where}.matrix has shape {m.shape}; its support needs "
            f"({d}, {d})")
    if im is not None:
        if im.shape != m.shape:
            raise ModelFormatError(
                f"{where}.matrix.im has shape {im.shape}; re has shape {m.shape}")
        m.imag = im
    # numpy read true as 1.0 and "2" as 2.0; re and im are rows of scalars
    rows = itertools.chain(block["re"], block.get("im", ()))
    kinds = {type(x) for row in rows for x in row}
    if not kinds <= {int, float}:
        raise ModelFormatError(f"{where}.matrix entries must be numbers, not "
                               f"{min(k.__name__ for k in kinds - {int, float})}")
    if not np.isfinite(m).all():
        raise ModelFormatError(f"{where}.matrix entries must be finite")
    return m


def _term_from_json(entry: Any, idx: int, dims: dict[int, int]
                    ) -> PauliSum | SupportedOperator:
    """One term, decoded once: ``ModelInstance`` admits it (its clique, and
    a dense term's Hermitian check and symmetrization)."""
    where = f"terms[{idx}]"
    if not isinstance(entry, dict):
        raise ModelFormatError(f"{where} must be an object")
    support = entry.get("support")
    if not isinstance(support, list) or not support or not all(map(_is_int, support)):
        raise ModelFormatError(f"{where}.support must be a non-empty list of site ids")
    sites = set(support)
    if sorted(sites) != support:
        raise ModelFormatError(f"{where}.support must be sorted and without repeats")
    if not sites <= dims.keys():
        raise ModelFormatError(f"{where}.support references unknown site "
                               f"{min(sites - dims.keys())}")
    coeff = _coeff_from_json(entry.get("coeff", 1.0), where)
    given = [k for k in ("pauli", "words", "matrix") if k in entry]
    if len(given) > 1:
        raise ModelFormatError(f"{where} must give one of pauli, words or matrix, "
                               f"not {' and '.join(given)}")
    if given == ["matrix"]:
        block = entry["matrix"]
        if not isinstance(block, dict) or "re" not in block:
            raise ModelFormatError(f"{where}.matrix must be an object with re (and im)")
        m = _matrix_from_json(block, math.prod(dims[s] for s in support), where)
        if coeff != 1.0:  # times 1 could flip the sign of a zero entry
            m *= coeff
        return SupportedOperator(tuple(support), m)
    if not given:
        raise ModelFormatError(f"{where} needs a pauli string or a matrix, or words")
    if coeff.imag != 0.0:
        raise ModelFormatError(f"{where}.coeff must be real for a Pauli term")
    for s in support:
        if dims[s] != 2:
            raise ModelFormatError(
                f"{where}: Pauli letters need qubit sites, but site {s} "
                f"has dim {dims[s]}")
        if not 0 <= s < QUBIT_ID_LIMIT:
            raise ModelFormatError(
                f"{where}: Pauli qubit id {s} is outside 0 <= id < 2**20")
    qubits = [1 << s for s in support]
    if given == ["pauli"]:
        return PauliSum((_word_from_json(entry["pauli"], coeff.real, qubits, where),))
    words = entry["words"]
    if not isinstance(words, list) or not words:
        raise ModelFormatError(f"{where}.words must be a non-empty list of "
                               f"{{pauli, coeff}} objects")
    out = []
    for k, w in enumerate(words):
        at = f"{where}.words[{k}]"
        if not isinstance(w, dict) or "pauli" not in w:
            raise ModelFormatError(f"{at} must be an object with a pauli string")
        c = _coeff_from_json(w.get("coeff", 1.0), at)
        if c.imag != 0.0:
            raise ModelFormatError(f"{at}.coeff must be real for a Pauli term")
        out.append(_word_from_json(w["pauli"], coeff.real * c.real, qubits, at))
    return PauliSum(tuple(out))


def model_from_json(data: Any) -> ModelInstance:
    """Build a model from parsed JSON, with field-level diagnostics."""
    if not isinstance(data, dict):
        raise ModelFormatError("model file must be a JSON object")
    raw_sites = data.get("sites")
    if not isinstance(raw_sites, list) or not raw_sites:
        raise ModelFormatError("sites must be a non-empty list of {id, dim}")
    dims: dict[int, int] = {}
    for k, s in enumerate(raw_sites):
        if not isinstance(s, dict) or not _is_int(s.get("id")):
            raise ModelFormatError(f"sites[{k}] must be an object with an integer id")
        d = s.get("dim", 2)
        if not _is_int(d) or d < 2:
            raise ModelFormatError(f"sites[{k}].dim must be an integer >= 2")
        if s["id"] in dims:
            raise ModelFormatError(f"sites[{k}]: id {s['id']} repeats")
        dims[s["id"]] = d
    space = SiteSpace.from_dims(dims)
    raw_edges = data.get("edges", [])
    if not isinstance(raw_edges, list):
        raise ModelFormatError("edges must be a list of [id, id] pairs")
    edges = []
    for k, e in enumerate(raw_edges):
        if not isinstance(e, list) or len(e) != 2 or not all(map(_is_int, e)):
            raise ModelFormatError(f"edges[{k}] must be a pair of site ids")
        u, v = e
        if u not in dims or v not in dims:
            raise ModelFormatError(f"edges[{k}] references an unknown site")
        if u == v:
            raise ModelFormatError(f"edges[{k}] is a self-loop on site {u}")
        edges.append((u, v))
    graph = Graph(frozenset(dims), frozenset(edges))
    raw_terms = data.get("terms")
    if not isinstance(raw_terms, list) or not raw_terms:
        raise ModelFormatError("terms must be a non-empty list")
    terms = tuple(_term_from_json(t, k, dims) for k, t in enumerate(raw_terms))
    beta = data.get("beta", 1.0)
    if not _is_finite_number(beta):
        raise ModelFormatError("beta must be a finite number")
    try:
        return ModelInstance(space, graph, terms, beta=float(beta))
    except QmnError as e:
        if isinstance(e, NonHermitianError) and e.term is not None:
            raise ModelFormatError(
                f"terms[{e.term}].matrix after coeff: {e.__cause__}") from None
        raise ModelFormatError(f"model invalid: {e}") from e


def model_to_json(model: ModelInstance) -> dict:
    """JSON form of a model; Pauli terms stay symbolic, the rest goes dense.

    A Pauli sum of one word is written as ``pauli`` letters on its support,
    of several as a ``words`` list on the union of their supports.  A term
    on no site, a multiple c of the identity, is written as c I on a site,
    since the file format has no empty support: as the letter ``I`` on the
    first qubit site for a Pauli sum, else as a matrix on the first site.
    """
    sites = [{"id": s, "dim": d}
             for s, d in zip(model.space.sites, model.space.dims)]
    edges = [[u, v] for u, v in sorted(model.graph.edges)]
    plain = model.site_composition is None
    qubit = next((s for s, d in zip(model.space.sites, model.space.dims)
                  if d == 2 and 0 <= s < QUBIT_ID_LIMIT), None)
    terms = []
    for t in model.terms:
        if plain and isinstance(t, PauliSum) and (t.support or qubit is not None):
            sup = list(t.support) or [qubit]
            coded = [{"pauli": " ".join(w.letters.get(q, "I") for q in sup),
                      "coeff": w.coeff.real} for w in t.terms or (PauliTerm(0.0),)]
            entry = {"support": sup,
                     **(coded[0] if len(coded) == 1 else {"words": coded})}
        else:
            op = model.term_operator(t)
            if not op.support:
                first = model.space.sites[0]
                op = SupportedOperator(
                    (first,), op.matrix[0, 0] * np.eye(model.space.dim(first)))
            entry = {"support": list(op.support),
                     "matrix": {"re": op.matrix.real.tolist(),
                                "im": op.matrix.imag.tolist()},
                     "coeff": 1.0}
        terms.append(entry)
    return {"sites": sites, "edges": edges, "terms": terms,
            "beta": float(model.beta)}


def load_model(path: str) -> ModelInstance:
    """Read a model file: ``orjson`` parses the bytes, ``model_from_json``
    checks every field.  Bytes that orjson refuses go to ``_json_fallback``."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise ModelFormatError(f"{path}: {e.strerror or e}") from e
    try:
        data = orjson.loads(raw)
    except orjson.JSONDecodeError:
        data = _json_fallback(raw, path)
    return model_from_json(data)


def _json_fallback(raw: bytes, path: str) -> Any:
    """Parse what orjson refused with stdlib ``json``, as a text-mode read
    of the file sees it (UTF-8, newlines made ``\\n``).  JSON's NaN,
    Infinity and 1e400 parse and meet the field check that names them;
    a syntax error gets json's line and message."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ModelFormatError(
            f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelFormatError(f"{path}: line {e.lineno}: {e.msg}") from e
    except RecursionError:
        raise ModelFormatError(f"{path}: JSON nested too deeply to read") from None


def save_model(model: ModelInstance, path: str | None) -> None:
    """Write ``model_to_json(model)`` to ``path``, or to stdout if None: one
    line of compact JSON by ``orjson``, whose floats read back bit for bit.
    Site ids must fit 64 bits."""
    text = orjson.dumps(model_to_json(model)) + b"\n"
    if path:
        with open(path, "wb") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text.decode())


# ---------------------------------------------------------------------------
# report plumbing

def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _maybe_dot(model: ModelInstance, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(to_dot(model.graph))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_verify_markov(args) -> int:
    model = load_model(args.model)
    if args.beta is not None:
        model = dataclasses.replace(model, beta=args.beta)
    _maybe_dot(model, args.dot)
    rep = verify_gibbs(model, tol=args.tol, mode=args.partitions, route=args.route)
    _emit(_markov_json(rep), args.out)
    return EXIT_PASS if rep.passed else EXIT_FAIL


def _markov_json(rep: MarkovReport) -> dict:
    """The report's partitions and verdict, with the route, tolerance and
    mode that produced them, and the certifying classify verdict and its
    commutator tolerance if any."""
    doc = rep.to_json_dict() | {"route": rep.route, "tolerance": rep.tolerance,
                                "mode": rep.mode}
    if rep.certificate is not None:
        doc |= {"certificate": rep.certificate, "rtol": rep.rtol}
    return doc


def _cmd_cumulants(args) -> int:
    model = load_model(args.model)
    _maybe_dot(model, args.dot)
    exp = model_cumulants(model, args.of)
    listed = [k for k in exp.supports()
              if args.max_support is None or len(k) <= args.max_support]
    listed_mass = sum(exp.norm_sq(k) for k in listed)
    total = exp.total_norm_sq
    gap = max(total - listed_mass, 0.0) / max(total, 1e-300)
    clique = verify_clique_support(exp, model.graph, rtol=args.rtol)
    report = {
        "of": args.of,
        "route": "local",
        "rtol": args.rtol,
        "scalar_computed": exp.scalar_known,
        "total_norm_sq": total,
        "supports": [{"sites": list(k), "norm_sq": exp.norm_sq(k)}
                     for k in listed],
        "parseval_gap": gap,
        "clique": {
            "pass": clique.passed,
            "off_clique_norm": clique.off_clique_norm,
            "worst": sorted(clique.worst[0]) if clique.witnesses else None,
        },
    }
    _emit(report, args.out)
    return EXIT_PASS if clique.passed else EXIT_FAIL


def _classification_json(c, rtol: float) -> dict:
    return {
        "verdict": c.verdict,
        "route": c.route,
        "rtol": 0.0 if c.route == "symbolic" else rtol,  # the tolerance applied
        "search_cap": decompose.SPLIT_SEARCH_CAP,
        "pairwise_max": c.pairwise_max,
        "pairwise_worst": list(c.pairwise_worst) if c.pairwise_worst else None,
        "partitions": [{"A": sorted(r.partition.a), "B": sorted(r.partition.b),
                        "C": sorted(r.partition.c), "commuting": r.commuting,
                        "commutator_norm": r.commutator_norm}
                       for r in c.records],
        "witness": ({"A": sorted(c.witness.a), "B": sorted(c.witness.b),
                     "C": sorted(c.witness.c)} if c.witness else None),
    }


def _cmd_classify(args) -> int:
    model = load_model(args.model)
    _maybe_dot(model, args.dot)
    c = classify(model, rtol=args.rtol)
    _emit(_classification_json(c, args.rtol), args.out)
    return EXIT_FAIL if c.verdict == NOT_SHIELD_COMMUTING else EXIT_PASS


def _cmd_decompose(args) -> int:
    model = load_model(args.model)
    _maybe_dot(model, args.dot)
    echo = {"route": "local", "tolerance": args.tol, "support_rtol": args.support_rtol}
    try:
        dec = theorem4_decompose(model_cumulants(model, of="hamiltonian"), model.graph,
                                 rtol=args.tol, support_rtol=args.support_rtol)
    except (NotMarkovError, NotTriangleFreeError,
            DecompositionResidualError) as e:
        _emit({"decomposed": False, "reason": str(e)} | echo, args.report)
        return EXIT_FAIL
    report = {
        "decomposed": True,
        "residual": dec.residual,
        "max_commutator": dec.max_commutator,
        "vertex_terms": [{"site": u, "norm": dec.vertex_terms[u].hs_norm()}
                         for u in sorted(dec.vertex_terms)],
        "edge_terms": [{"edge": list(e), "norm": dec.edge_terms[e].hs_norm()}
                       for e in sorted(dec.edge_terms)],
    } | echo
    _emit(report, args.report)
    if args.out:
        save_model(dec.to_model(), args.out)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# demos

def _claim(lines: list[str], ok: bool, text: str) -> bool:
    lines.append(("[pass] " if ok else "[fail] ") + text)
    return ok


def _demo_counterexample() -> int:
    model = families.cell_model()
    down, left, up, right = model.terms
    names = ("down", "left", "up", "right")
    lines: list[str] = []
    ok = True
    lines.append("pairwise commutator norms:")
    for i, a in enumerate(model.terms):
        for j, b in enumerate(model.terms[i + 1:], start=i + 1):
            norm = commutator(a, b).norm()
            lines.append(f"  [h_{names[i]}, h_{names[j]}] norm {norm:g}")
    c1 = commutator(down + right, left + up)
    c2 = commutator(down + left, up + right)
    ok &= _claim(lines, c1.is_zero and c2.is_zero,
                 "both shield groupings commute exactly (symbolic zero)")
    pair = commutator(down, left)
    want = PauliTerm.from_letters(-2j, {1: "Z", 3: "Z", 5: "Z"})
    ok &= _claim(lines, (pair - want).is_zero,
                 "[h_down, h_left] = -2i Z1 Z3 Z5, norm 2 > 1")
    rep = is_markov_network(gibbs(model), model.graph, tol=1e-9)
    found = {(tuple(sorted(r.partition.a)), tuple(sorted(r.partition.b)),
              tuple(sorted(r.partition.c))) for r in rep.records}
    expected = {((1,), (2, 4, 5), (3,)), ((2,), (1, 3, 5), (4,))}
    ok &= _claim(lines, rep.passed and found == expected,
                 f"Gibbs state is Markov over exactly the two spanning "
                 f"partitions (max CMI {rep.max_cmi:.2e})")
    verdict = classify(model).verdict
    ok &= _claim(lines, verdict == "ShieldCommutingOnly",
                 f"classification: {verdict}")
    try:
        theorem4_decompose(model_cumulants(model, of="hamiltonian"), model.graph)
        triangle_ok = False
    except NotTriangleFreeError:
        triangle_ok = True
    ok &= _claim(lines, triangle_ok,
                 "commuting decomposition rejected: graph has triangles")
    print("\n".join(lines))
    return EXIT_PASS if ok else EXIT_FAIL


def _demo_coarse_grain() -> int:
    model = families.cell_model()
    merged = coarse_grain_model(model, {5: 1})
    lines: list[str] = []
    ok = True
    sups = sorted(tuple(sorted(merged.term_support(t))) for t in merged.terms)
    ok &= _claim(lines, sups == [(1, 2, 3), (1, 3, 4)],
                 f"merging 5 into 1 leaves two grouped terms on {sups}")
    pairs_zero = all(commutator(a, b).is_zero for i, a in enumerate(merged.terms)
                     for b in merged.terms[i + 1:])
    ok &= _claim(lines, pairs_zero, "grouped terms commute exactly (symbolic zero)")
    verdict = classify(merged).verdict
    ok &= _claim(lines, verdict == "LocalCommuting",
                 f"merged model classification: {verdict}")
    print("\n".join(lines))
    return EXIT_PASS if ok else EXIT_FAIL


def _demo_tiling(rows: int, cols: int) -> int:
    try:
        model = families.tiling_model(rows, cols, merged=True)
    except ValueError as e:
        raise ModelFormatError(str(e)) from None
    lines: list[str] = []
    c = classify(model)
    ok = _claim(
        lines, c.verdict == "LocalCommuting" and c.pairwise_max == 0.0,
        f"{rows}x{cols} tiling, northeast-merged: {len(model.space.sites)} "
        f"sites, {len(model.terms)} grouped terms, all symbolic commutators "
        f"exactly zero")
    print("\n".join(lines))
    return EXIT_PASS if ok else EXIT_FAIL


def _cmd_demo(args) -> int:
    name = args.name
    if name == "counterexample":
        return _demo_counterexample()
    if name == "coarse-grain":
        return _demo_coarse_grain()
    if name == "tiling":
        return _demo_tiling(*_shape(args.shape or "3x3"))
    raise ModelFormatError(f"unknown demo {name!r}")


# ---------------------------------------------------------------------------
# generators

def _shape(text: str) -> tuple[int, int]:
    """Rows and columns of a tiling size ``RxC``, both at least 1."""
    match = re.fullmatch(r"([1-9][0-9]*)x([1-9][0-9]*)", text.lower())
    if not match:
        raise ModelFormatError(f"tiling shape {text!r} is not RxC with R, C >= 1")
    return int(match[1]), int(match[2])


def _cmd_generate(args) -> int:
    fam = args.family
    beta_kw = {} if args.beta is None else {"beta": args.beta}
    try:
        rng = np.random.default_rng(args.seed)
        if fam == "cell":
            model = families.cell_model(**beta_kw)
        elif fam == "noncommuting-chain":
            model = families.noncommuting_chain(**beta_kw)
        elif fam == "ising":
            model = families.ising_chain(args.sites, **beta_kw)
        elif fam == "tiling":
            model = families.tiling_model(*_shape(args.shape), **beta_kw)
        elif fam == "random-commuting":
            model = families.random_commuting_model(rng, max_sites=args.sites, **beta_kw)
        else:  # theorem4, the last of the parser's choices
            model = families.theorem4_model(args.kind, rng, **beta_kw)
    except ValueError as e:
        raise ModelFormatError(str(e)) from None
    _maybe_dot(model, args.dot)
    save_model(model, args.out)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# argument parsing

def _checked(convert, ok, rule: str):
    """argparse type that converts an option's text and requires ``ok`` of
    the value; argparse reports a failed conversion under ``convert``'s name."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    parse.__name__ = convert.__name__
    return parse


_finite_float = _checked(float, math.isfinite, "a finite number")
# a tolerance
_positive_float = _checked(float, lambda x: math.isfinite(x) and x > 0.0,
                           "a finite number above zero")
# a size limit
_nonnegative_int = _checked(int, lambda n: n >= 0, "an integer >= 0")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ModelFormatError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once; each ``parse_args`` call returns a
    fresh namespace."""
    p = _Parser(prog="qmn",
                description="Verify, classify and decompose quantum Markov "
                            "networks from JSON model files.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_model_cmd(name, help_text):
        c = sub.add_parser(name, help=help_text)
        c.add_argument("model", help="path to a JSON model file")
        c.add_argument("--out", help="write the JSON report here instead of stdout")
        c.add_argument("--dot", help="also write the interaction graph in DOT format")
        return c

    c = add_model_cmd("verify-markov",
                      "check I(A:C|B) over all spanning shielding partitions "
                      "of the Gibbs state")
    c.add_argument("--tol", type=_positive_float, default=markov.DEFAULT_CMI_TOL)
    c.add_argument("--partitions", choices=("spanning", "all"), default="spanning")
    c.add_argument("--route", choices=("auto", "dense"), default="auto",
                   help="auto: a commutation certificate first, the dense CMI "
                        "sweep otherwise; dense: always the sweep")
    c.add_argument("--beta", type=_finite_float, default=None,
                   help="override the file's inverse-temperature factor")
    c.set_defaults(func=_cmd_verify_markov)

    c = add_model_cmd("cumulants",
                      "cumulant decomposition with per-support masses, "
                      "Parseval gap and a clique-support check")
    c.add_argument("--of", choices=cumulants.CUMULANT_TARGETS,
                   default="log-gibbs")
    c.add_argument("--max-support", type=_nonnegative_int, default=None,
                   help="list supports up to this size only")
    c.add_argument("--rtol", type=_positive_float,
                   default=cumulants.DEFAULT_CLIQUE_RTOL)
    c.set_defaults(func=_cmd_cumulants)

    c = add_model_cmd("classify",
                      "LocalCommuting / ShieldCommutingOnly / NotShieldCommuting")
    c.add_argument("--rtol", type=_positive_float, default=decompose.DEFAULT_RTOL)
    c.set_defaults(func=_cmd_classify)

    c = sub.add_parser("decompose",
                       help="commuting vertex/edge regrouping of beta H (log rho "
                            "up to its scalar) on a triangle-free graph")
    c.add_argument("model", help="path to a JSON model file")
    c.add_argument("--tol", type=_positive_float, default=decompose.DEFAULT_RTOL)
    c.add_argument("--support-rtol", type=_positive_float,
                   default=decompose.DEFAULT_SUPPORT_RTOL)
    c.add_argument("--report", help="write the JSON report here instead of stdout")
    c.add_argument("--out", help="write the decomposition as a re-ingestable model file")
    c.add_argument("--dot", help="also write the interaction graph in DOT format")
    c.set_defaults(func=_cmd_decompose)

    c = sub.add_parser("demo", help="run a built-in scenario and print pass/fail claims")
    c.add_argument("name", help="counterexample | coarse-grain | tiling")
    c.add_argument("shape", nargs="?", default=None,
                   help="RxC size for the tiling demo (default 3x3)")
    c.set_defaults(func=_cmd_demo)

    c = sub.add_parser("generate", help="write a built-in model family as a model file")
    c.add_argument("family", choices=("cell", "noncommuting-chain", "ising",
                                      "tiling", "random-commuting", "theorem4"))
    c.add_argument("--sites", type=int, default=5,
                   help="site count for ising / random-commuting")
    c.add_argument("--shape", default="2x2", help="RxC size for tiling")
    c.add_argument("--kind", choices=families.THEOREM4_KINDS, default="path4",
                   help="graph family for theorem4")
    c.add_argument("--beta", type=_finite_float, default=None,
                   help="default 1.0, or drawn from the seed for "
                        "random-commuting and theorem4")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", help="output path (default stdout)")
    c.add_argument("--dot", help="also write the interaction graph in DOT format")
    c.set_defaults(func=_cmd_generate)
    return p


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as e:
            return EXIT_PASS if e.code in (0, None) else EXIT_ERROR
        return args.func(args)
    except ModelFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except (DenseCapError, EnumerationCapError, PositivityViolationError) as e:
        print(f"error: {type(e).__name__}: {e} (a limit, no verdict)", file=sys.stderr)
        return EXIT_LIMIT
    except QmnError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
