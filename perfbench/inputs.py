"""Pinned benchmark input: the ``pokec`` registry stand-in and its truth.

The graph is built straight from the registry's generator and seed, not
through ``load_dataset("pokec")``, so a host that sets ``REPRO_DATA_DIR``
cannot silently swap in a real snapshot.  Exact k=3/k=4 concentrations
are computed once, offline, and stored in ``truth.json`` keyed by the
graph fingerprint: exact k=4 takes seconds and hundreds of MB, which
would swamp ``setup_s`` and ``peak_rss_mb`` if it ran in a measured
process.

    python3 perfbench/inputs.py           # self-test: fingerprint + k=3
    python3 perfbench/inputs.py --write   # recompute and store truth.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.graphs import CSRGraph, largest_connected_component, powerlaw_cluster  # noqa: E402

TRUTH_PATH = HERE / "truth.json"

#: The registry's ``pokec`` stand-in (graphs/datasets.py): generator
#: arguments and seed, reduced to the largest connected component.
GRAPH_NAME = "pokec-standin"
GRAPH_ARGS = dict(n=20000, m=5, p=0.3, seed=111)

#: Graphlet whose NRMSE is reported, per graphlet size.
TARGET = {3: "triangle", 4: "tailed-triangle"}


def build_graph():
    """The stand-in as a Python graph (generator + LCC)."""
    a = GRAPH_ARGS
    graph, _ = largest_connected_component(
        powerlaw_cluster(a["n"], a["m"], a["p"], seed=a["seed"])
    )
    return graph


def build_csr() -> CSRGraph:
    """Generator + LCC + CSR conversion: the set-up every workload pays."""
    return CSRGraph.from_graph(build_graph())


def fingerprint(csr: CSRGraph) -> dict:
    """``n``, ``m`` and a hash of the CSR arrays, which pin the edge set."""
    digest = hashlib.sha256()
    for array in (csr.indptr, csr.indices):
        digest.update(array.astype("<i8").tobytes())
    return {
        "n": int(csr.num_nodes),
        "m": int(csr.num_edges),
        "edge_hash": digest.hexdigest()[:24],
    }


def load_truth(csr: CSRGraph) -> dict:
    """Stored truth for ``csr``; raises if the fingerprint does not match."""
    data = json.loads(TRUTH_PATH.read_text())
    found = fingerprint(csr)
    if data["fingerprint"] != found:
        raise ValueError(
            f"graph fingerprint {found} does not match truth.json "
            f"{data['fingerprint']}; rerun inputs.py --write"
        )
    return {int(k): v for k, v in data["concentrations"].items()}


def _k3_truth(csr: CSRGraph) -> dict:
    from repro import graphlets, triad_census

    conc = triad_census(csr).concentrations()
    return {g.name: conc[g.index] for g in graphlets(3)}


def write_truth() -> None:
    from repro import exact_concentrations, graphlets

    graph = build_graph()
    csr = CSRGraph.from_graph(graph)
    k4 = exact_concentrations(graph, 4)
    data = {
        "graph": GRAPH_NAME,
        "generator": {"name": "powerlaw_cluster", **GRAPH_ARGS, "lcc": True},
        "fingerprint": fingerprint(csr),
        "concentrations": {
            "3": _k3_truth(csr),
            "4": {g.name: float(k4[g.index]) for g in graphlets(4)},
        },
    }
    TRUTH_PATH.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {TRUTH_PATH.name}: {data['fingerprint']}")


def self_test() -> int:
    """Rebuild the graph, check the fingerprint, recompute k=3 truth."""
    csr = build_csr()
    try:
        truth = load_truth(csr)
    except ValueError as exc:
        print(f"FAIL: {exc}")
        return 1
    k3 = _k3_truth(csr)
    if k3 != truth[3]:
        print(f"FAIL: triad census {k3} != stored k=3 truth {truth[3]}")
        return 1
    print(f"ok: {fingerprint(csr)}; k=3 truth matches the triad census")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        write_truth()
        sys.exit(0)
    if sys.argv[1:]:
        sys.exit("usage: inputs.py [--write]")
    sys.exit(self_test())
