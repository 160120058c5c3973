"""Command-line front end: model files, pipeline subcommands and demos.

Model files are JSON with the shape

    {"sites": [{"id": 1, "dim": 2}, ...],
     "edges": [[1, 2], ...],
     "terms": [{"support": [1, 2], "pauli": "Z Z", "coeff": 1.0},
               {"support": [3], "matrix": {"re": [[..]], "im": [[..]]},
                "coeff": [0.5, 0.0]}],
     "beta": 1.0}

Pauli letters map positionally onto the (sorted) support sites, which must
all be qubits with ids 0 <= id < 2**20; matrix terms are row-major with
separate real and imaginary parts and must be Hermitian after scaling by
``coeff``, within ``check_hermitian``'s 1e-12 of the largest entry.  Every
number in a model file (coefficients, matrix entries, ``beta``) must be
finite.

``decompose`` and ``cumulants`` take the local route (``"route":
"local"`` in the report): the cumulants of log rho = beta H - log Z 1, or
of beta H with ``--of hamiltonian``, are built from the model's terms on
their own supports, exact and with no positivity floor, at any system
size.  The two differ only in the empty-support (scalar) component.  Of
log rho only that scalar, -log Z, needs the spectrum of the dense H, so it
is computed inside the dense cap only; past the cap the ``cumulants``
report says ``"scalar_computed": false`` and ``decompose`` gives vertex
terms without the -log Z / n shift, which the Gibbs state does not see.
Reports echo the tolerances they used: ``classify`` its ``rtol``,
``search_cap`` and ``route`` (``symbolic`` for Pauli terms, else
``dense``), ``decompose`` its ``tolerance`` and ``support_rtol``,
``cumulants`` its ``rtol``.

``verify-markov`` answers by certificate before it builds any state: an
all-Pauli model that ``classify`` finds LocalCommuting or
ShieldCommutingOnly has every CMI exactly 0 on every shielding partition
at once (see ``decompose.py``), and the report says ``"route":
"certificate"``.  It lists, with CMI 0.0, the spanning partitions that
``classify`` regrouped, and none for a LocalCommuting model, whatever
``--partitions`` says; so it answers past the partition enumeration caps
too.  Every other model, and ``--route dense``, takes the dense CMI sweep
over the ``--partitions`` mode's partitions (``"route": "dense"``).
Tolerance options (``--tol``, ``--rtol``, ``--support-rtol``) take finite
numbers above zero.

Exit codes: 0 when the command's claim holds, 2 when it fails (not Markov,
not decomposable, off-clique weight, NotShieldCommuting), 1 on usage or
data errors, 3 when a valid input hit a limit and got no verdict (the
dense cap, the partition or grouping enumeration cap, a state below the
positivity floor).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from typing import Any, Sequence

import numpy as np

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
from .pauli import QUBIT_ID_LIMIT, PauliSum, PauliTerm, as_sum, commutator
from .tensor import SiteSpace, SupportedOperator, check_hermitian

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_FAIL = 2
EXIT_LIMIT = 3

_LETTERS = frozenset("IXYZ")


# ---------------------------------------------------------------------------
# model file serialization

def _is_finite_number(x: Any) -> bool:
    try:
        return isinstance(x, (int, float)) and math.isfinite(x)
    except OverflowError:  # an integer past the float range
        return False


def _coeff_from_json(raw: Any, where: str) -> complex:
    parts = raw if isinstance(raw, list) and len(raw) == 2 else [raw]
    if not all(_is_finite_number(x) for x in parts):
        raise ModelFormatError(
            f"{where}.coeff must be a finite real number or [re, im]")
    return complex(*parts)


def _term_from_json(entry: Any, idx: int, space: SiteSpace) -> PauliTerm | SupportedOperator:
    where = f"terms[{idx}]"
    if not isinstance(entry, dict):
        raise ModelFormatError(f"{where} must be an object")
    support = entry.get("support")
    if (not isinstance(support, list) or not support
            or any(not isinstance(s, int) for s in support)):
        raise ModelFormatError(f"{where}.support must be a non-empty list of site ids")
    if sorted(set(support)) != support:
        raise ModelFormatError(f"{where}.support must be sorted and without repeats")
    for s in support:
        if s not in space:
            raise ModelFormatError(f"{where}.support references unknown site {s}")
    coeff = _coeff_from_json(entry.get("coeff", 1.0), where)
    if "pauli" in entry:
        if "matrix" in entry:
            raise ModelFormatError(f"{where} must give either pauli or matrix, not both")
        if coeff.imag != 0.0:
            raise ModelFormatError(f"{where}.coeff must be real for a Pauli term")
        text = entry["pauli"]
        if not isinstance(text, str):
            raise ModelFormatError(f"{where}.pauli must be a string of letters")
        tokens = text.split()
        if len(tokens) != len(support):
            raise ModelFormatError(
                f"{where}.pauli has {len(tokens)} letters for {len(support)} "
                f"support sites")
        letters = {}
        for s, tok in zip(support, tokens):
            up = tok.upper()
            if up not in _LETTERS:
                raise ModelFormatError(f"{where}.pauli: unknown letter {tok!r}")
            if space.dim(s) != 2:
                raise ModelFormatError(
                    f"{where}: Pauli letters need qubit sites, but site {s} "
                    f"has dim {space.dim(s)}")
            if not 0 <= s < QUBIT_ID_LIMIT:
                raise ModelFormatError(
                    f"{where}: Pauli qubit id {s} is outside 0 <= id < 2**20")
            if up != "I":
                letters[s] = up
        return PauliTerm.from_letters(coeff.real, letters)
    if "matrix" not in entry:
        raise ModelFormatError(f"{where} needs a pauli string or a matrix")
    block = entry["matrix"]
    if not isinstance(block, dict) or "re" not in block:
        raise ModelFormatError(f"{where}.matrix must be an object with re (and im)")
    try:
        m = np.array(block["re"], dtype=float).astype(complex)
        if "im" in block:
            m = m + 1j * np.array(block["im"], dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ModelFormatError(f"{where}.matrix entries must be numeric arrays") from None
    if not np.all(np.isfinite(m)):
        raise ModelFormatError(f"{where}.matrix entries must be finite")
    d = space.subspace(support).total_dim
    if m.shape != (d, d):
        raise ModelFormatError(
            f"{where}.matrix has shape {m.shape}; support {support} needs "
            f"({d}, {d})")
    try:
        m = check_hermitian(coeff * m)
    except NonHermitianError as e:
        raise ModelFormatError(f"{where}.matrix after coeff: {e}") from None
    return SupportedOperator(tuple(support), m)


def model_from_json(data: Any) -> ModelInstance:
    """Build a model from parsed JSON, with field-level diagnostics."""
    if not isinstance(data, dict):
        raise ModelFormatError("model file must be a JSON object")
    raw_sites = data.get("sites")
    if not isinstance(raw_sites, list) or not raw_sites:
        raise ModelFormatError("sites must be a non-empty list of {id, dim}")
    dims: dict[int, int] = {}
    for k, s in enumerate(raw_sites):
        if not isinstance(s, dict) or not isinstance(s.get("id"), int):
            raise ModelFormatError(f"sites[{k}] must be an object with an integer id")
        d = s.get("dim", 2)
        if not isinstance(d, int) or d < 2:
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
        if (not isinstance(e, list) or len(e) != 2
                or any(not isinstance(x, int) for x in e)):
            raise ModelFormatError(f"edges[{k}] must be a pair of site ids")
        if e[0] not in dims or e[1] not in dims:
            raise ModelFormatError(f"edges[{k}] references an unknown site")
        edges.append((e[0], e[1]))
    graph = Graph.from_edges(edges, vertices=sorted(dims))
    raw_terms = data.get("terms")
    if not isinstance(raw_terms, list) or not raw_terms:
        raise ModelFormatError("terms must be a non-empty list")
    terms = tuple(_term_from_json(t, k, space) for k, t in enumerate(raw_terms))
    beta = data.get("beta", 1.0)
    if not _is_finite_number(beta):
        raise ModelFormatError("beta must be a finite number")
    try:
        return ModelInstance(space, graph, terms, beta=float(beta))
    except QmnError as e:
        raise ModelFormatError(f"model invalid: {e}") from e


def model_to_json(model: ModelInstance) -> dict:
    """JSON form of a model; Pauli words stay symbolic, the rest goes dense."""
    sites = [{"id": s, "dim": d}
             for s, d in zip(model.space.sites, model.space.dims)]
    edges = [[u, v] for u, v in sorted(model.graph.edges)]
    plain = model.site_composition is None
    terms = []
    for t in model.terms:
        word = None
        if plain and isinstance(t, (PauliTerm, PauliSum)):
            s = as_sum(t)
            if len(s.terms) == 1 and abs(s.terms[0].coeff.imag) < 1e-14:
                word = s.terms[0]
        if word is not None:
            sup = sorted(word.support)
            letters = word.letters
            terms.append({"support": sup,
                          "pauli": " ".join(letters.get(s, "I") for s in sup),
                          "coeff": float(word.coeff.real)})
        else:
            op = model.term_operator(t)
            terms.append({"support": list(op.support),
                          "matrix": {"re": op.matrix.real.tolist(),
                                     "im": op.matrix.imag.tolist()},
                          "coeff": 1.0})
    return {"sites": sites, "edges": edges, "terms": terms,
            "beta": float(model.beta)}


def load_model(path: str) -> ModelInstance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ModelFormatError(f"{path}: {e.strerror or e}") from e
    except json.JSONDecodeError as e:
        raise ModelFormatError(f"{path}: line {e.lineno}: {e.msg}") from e
    return model_from_json(data)


def save_model(model: ModelInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json(model), fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# report plumbing

def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=1)
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
        model = ModelInstance(model.space, model.graph, model.terms,
                              beta=args.beta,
                              site_composition=model.site_composition)
    _maybe_dot(model, args.dot)
    rep = verify_gibbs(model, tol=args.tol, mode=args.partitions, route=args.route)
    _emit(_markov_json(rep), args.out)
    return EXIT_PASS if rep.passed else EXIT_FAIL


def _markov_json(rep: MarkovReport) -> dict:
    """The report's partitions and verdict, with the route, tolerance and
    mode that produced them, and the certifying classify verdict if any."""
    doc = rep.to_json_dict() | {"route": rep.route, "tolerance": rep.tolerance,
                                "mode": rep.mode}
    if rep.certificate is not None:
        doc["certificate"] = rep.certificate
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


def _classification_json(c, rtol: float, search_cap: int) -> dict:
    return {
        "verdict": c.verdict,
        "route": c.route,
        "rtol": rtol,
        "search_cap": search_cap,
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
    c = classify(model, rtol=args.rtol, search_cap=args.search_cap)
    _emit(_classification_json(c, args.rtol, args.search_cap), args.out)
    return EXIT_FAIL if c.verdict == NOT_SHIELD_COMMUTING else EXIT_PASS


def _cmd_decompose(args) -> int:
    model = load_model(args.model)
    _maybe_dot(model, args.dot)
    echo = {"route": "local", "tolerance": args.tol,
            "support_rtol": args.support_rtol}
    try:
        dec = theorem4_decompose(model_cumulants(model), model.graph,
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
            norm = commutator(as_sum(a), as_sum(b)).norm()
            lines.append(f"  [h_{names[i]}, h_{names[j]}] norm {norm:g}")
    c1 = commutator(PauliSum.of(down, right), PauliSum.of(left, up))
    c2 = commutator(PauliSum.of(down, left), PauliSum.of(up, right))
    ok &= _claim(lines, c1.is_zero and c2.is_zero,
                 "both shield groupings commute exactly (symbolic zero)")
    pair = commutator(as_sum(down), as_sum(left))
    want = PauliSum.of(PauliTerm.from_letters(-2j, {1: "Z", 3: "Z", 5: "Z"}))
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
        theorem4_decompose(model_cumulants(model), model.graph)
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
    pairs_zero = all(
        commutator(as_sum(a), as_sum(b)).is_zero
        for i, a in enumerate(merged.terms)
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
    try:
        rng = np.random.default_rng(args.seed)
        if fam == "cell":
            model = families.cell_model(beta=args.beta)
        elif fam == "noncommuting-chain":
            model = families.noncommuting_chain(beta=args.beta)
        elif fam == "ising":
            model = families.ising_chain(args.sites, beta=args.beta)
        elif fam == "tiling":
            model = families.tiling_model(*_shape(args.shape), beta=args.beta)
        elif fam == "random-commuting":
            model = families.random_commuting_model(rng, max_sites=args.sites)
        else:  # theorem4, the last of the parser's choices
            model = families.theorem4_model(args.kind, rng)
    except ValueError as e:
        raise ModelFormatError(str(e)) from None
    _maybe_dot(model, args.dot)
    _emit(model_to_json(model), args.out)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# argument parsing

def _finite_float(text: str) -> float:
    """argparse type of a finite float option."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    """argparse type of a tolerance: a finite float above zero."""
    value = _finite_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be above zero, got {text!r}")
    return value


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
    c.add_argument("--max-support", type=int, default=None,
                   help="list supports up to this size only")
    c.add_argument("--rtol", type=_positive_float,
                   default=cumulants.DEFAULT_CLIQUE_RTOL)
    c.set_defaults(func=_cmd_cumulants)

    c = add_model_cmd("classify",
                      "LocalCommuting / ShieldCommutingOnly / NotShieldCommuting")
    c.add_argument("--rtol", type=_positive_float, default=decompose.DEFAULT_RTOL)
    c.add_argument("--search-cap", type=int, default=decompose.SPLIT_SEARCH_CAP)
    c.set_defaults(func=_cmd_classify)

    c = sub.add_parser("decompose",
                       help="commuting vertex/edge regrouping of log rho on "
                            "a triangle-free graph")
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
    c.add_argument("--beta", type=_finite_float, default=1.0)
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
