"""Seeded workloads: the model files and the fixed operation list of one pass.

Every operation is one ``qmn`` subcommand, called in process through
``qmn.cli.main(argv)`` on a model file written at set-up, together with the
answer it must give.  The seed draws every random parameter (Ising couplings
and fields, random commuting models, theorem4 frames and coefficients); the
tilings, the cell, the non-commuting chain and the low-temperature chain are
fixed models.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from qmn import cli, families
from qmn.markov import ModelInstance

# the command family an op's latency is summed under
VERIFY, CUMULANTS, DECOMPOSE, CLASSIFY = "verify", "cumulants", "decompose", "classify"
KINDS = (VERIFY, CUMULANTS, DECOMPOSE, CLASSIFY)

WORKLOADS = ("verify-sweep", "decompose-triangle-free", "classify-tiling")

CMI_TOL = 1e-9
DECOMPOSE_TOL = 1e-8


@dataclass(frozen=True)
class Op:
    """One subcommand call and the answer it must give."""

    kind: str
    argv: tuple[str, ...]
    exit_code: int
    verdict: str
    report: str | None = None
    tol: float | None = None
    full_dim: int = 0


def _ising(rng: np.random.Generator, n: int) -> ModelInstance:
    # beta * spread(H) stays below ~24 at n=10, so the dense log of the
    # Gibbs state stays above the positivity floor of logm_pd
    coupling = float(rng.uniform(0.6, 1.0))
    field = float(rng.uniform(0.2, 0.6))
    return families.ising_chain(n, coupling=coupling, field=field)


def _dense_terms(model: ModelInstance) -> ModelInstance:
    """The same model with every term written as a matrix."""
    terms = tuple(model.term_operator(t) for t in model.terms)
    return ModelInstance(model.space, model.graph, terms, beta=model.beta)


class _Files:
    """Writes model files into the work directory and builds ops on them."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.dims: dict[str, int] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def save(self, name: str, model: ModelInstance) -> str:
        path = self.path(name + ".json")
        cli.save_model(model, path)
        self.dims[path] = model.space.total_dim
        return path

    def verify(self, model: str, verdict: str = "pass", *extra: str) -> Op:
        tag = "".join("." + x.strip("-") for x in extra)
        report = model[:-5] + tag + ".verify.out.json"
        return Op(VERIFY, ("verify-markov", model, "--tol", repr(CMI_TOL), *extra,
                           "--out", report),
                  0 if verdict == "pass" else 2, verdict, report, CMI_TOL,
                  self.dims[model])

    def classify(self, model: str, verdict: str) -> Op:
        report = model[:-5] + ".classify.out.json"
        code = 2 if verdict == "NotShieldCommuting" else 0
        return Op(CLASSIFY, ("classify", model, "--out", report), code, verdict,
                  report, None, self.dims[model])

    def decompose(self, model: str, out: str | None = None) -> Op:
        report = model[:-5] + ".decompose.out.json"
        argv = ("decompose", model, "--report", report)
        if out is not None:
            argv += ("--out", out)
        return Op(DECOMPOSE, argv, 0, "decomposed", report, DECOMPOSE_TOL,
                  self.dims[model])

    def cumulants(self, model: str) -> Op:
        report = model[:-5] + ".cumulants.out.json"
        return Op(CUMULANTS, ("cumulants", model, "--of", "log-gibbs",
                              "--out", report),
                  0, "clique", report, None, self.dims[model])

    def round_trip(self, name: str, model: ModelInstance) -> list[Op]:
        """decompose --out, classify of the written file, cumulants."""
        path = self.save(name, model)
        dec = self.path(name + ".dec.json")
        self.dims[dec] = model.space.total_dim
        return [self.decompose(path, out=dec),
                self.classify(dec, "LocalCommuting"),
                self.cumulants(path)]


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    """Write the workload's model files and return its operation list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng(seed)
    f = _Files(workdir)
    cell = f.save("cell", families.cell_model())
    chain = f.save("noncommuting-chain", families.noncommuting_chain())
    path4 = f.round_trip("check-path4", families.theorem4_model("path4", rng))
    if workload == "verify-sweep":
        ops = [f.verify(f.save("ising10", _ising(rng, 10))),
               f.verify(f.save("ising9", _ising(rng, 9))),
               f.verify(f.save("ising8", _ising(rng, 8)), "pass",
                        "--partitions", "all"),
               f.verify(f.save("tiling1x2", families.tiling_model(1, 2)), "pass",
                        "--partitions", "all")]
        ops += [f.verify(f.save(f"random{k}", families.random_commuting_model(rng)))
                for k in range(3)]
        ops += [f.verify(cell), f.verify(chain, "fail")]
        checks = [f.classify(cell, "ShieldCommutingOnly")] + path4
    elif workload == "decompose-triangle-free":
        ops = []
        for kind in families.THEOREM4_KINDS:
            ops += f.round_trip(kind, families.theorem4_model(kind, rng))
        ising10 = f.save("ising10", _ising(rng, 10))
        ops += [f.decompose(ising10),
                f.decompose(f.save("ising9", _ising(rng, 9))),
                f.cumulants(ising10)]
        # the low-temperature reproduction: a valid model that the dense
        # route rejects at the seed; kept at fixed parameters on purpose
        cold = f.save("ising6-beta3", families.ising_chain(6, beta=3.0))
        ops += [f.decompose(cold), f.cumulants(cold)]
        checks = [f.verify(cell), f.classify(cell, "ShieldCommutingOnly")]
    else:
        tiling = families.tiling_model(1, 2)
        ops = [f.classify(f.save("tiling1x3", families.tiling_model(1, 3)),
                          "ShieldCommutingOnly"),
               f.classify(f.save("tiling1x2", tiling), "ShieldCommutingOnly"),
               f.classify(f.save("tiling1x2-dense", _dense_terms(tiling)),
                          "ShieldCommutingOnly"),
               f.classify(cell, "ShieldCommutingOnly"),
               f.classify(chain, "NotShieldCommuting"),
               Op(CLASSIFY, ("demo", "tiling", "8x8"), 0, "pass")]
        checks = [f.verify(cell), path4[0], path4[2]]
    # Small checks of the commands a workload is not about follow each of
    # its ops, so every command and every layer runs on every workload, and
    # their samples spread over the whole pass instead of one moment of it.
    return [x for op in ops for x in (op, *checks)]
