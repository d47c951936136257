"""The serving tier's request/response vocabulary.

One normalized *job spec* flows through the whole tier: the gateway
parses client JSON into it (:func:`parse_job_request`), hashes it into
the canonical content key every layer shares
(:func:`job_cache_key` — the same digest
:func:`repro.service.cache.canonical_job_key` gives the in-process
engine cache), ships it to a worker over a pipe, and the worker turns
the engine's answer into a JSON-serializable *result document*
(:func:`result_document`) that is simultaneously the HTTP response
body, the persistent-cache payload, and the coalesced answer every
waiter shares.

Worker pipe messages are plain dicts tagged with ``op``:

========== =============================================== ==========
op          fields                                          direction
========== =============================================== ==========
hello       worker, pid                                     w -> gw
factor      id, key, job (a spec dict), trace?              gw -> w
result      id, ok, result | error, cache, worker, trace?   w -> gw
health      id [request has no other fields]                both
shutdown    —                                               gw -> w
========== =============================================== ==========

The optional ``trace`` field carries distributed-tracing context.  On
``factor`` it is ``{"trace_id": <hex>, "parent": <gateway span id>}``;
the worker runs the whole request under a private tracer and echoes a
span *batch* back on ``result``: ``{"trace_id", "proc": "worker:N",
"anchor": [time.time(), perf_counter()], "remote_parent": <the parent
id from the request>, "spans": [span dicts]}``.  The gateway stitches
batches into one merged trace per request
(:func:`repro.obs.assemble_request_trace`); re-dispatching a ``factor``
message after a crash reuses it verbatim, so the retried attempt keeps
the original ``trace_id``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.service.cache import canonical_job_key
from repro.service.jobs import ALGORITHMS

__all__ = [
    "BadRequest",
    "parse_job_request",
    "job_cache_key",
    "result_document",
    "estimate_kc_footprint",
    "CLASSES",
    "SEARCHERS",
]

#: Rectangle searchers a request may name (mirrors the CLI choices).
SEARCHERS = ("pingpong", "exhaustive")

#: What a request's SLO ``class`` selects, as (algorithm, searcher):
#: latency takes the fast ping-pong heuristic, quality the exhaustive
#: search.  Deadlines and budgets still degrade exhaustive to ping-pong
#: in the engine.
CLASSES = {
    "latency": ("sequential", "pingpong"),
    "quality": ("sequential", "exhaustive"),
}

#: Hard ceiling on inline ``eqn`` payloads (bytes of text) — admission
#: control for request *size*, independent of queue depth.
MAX_EQN_BYTES = 4 * 1024 * 1024


class BadRequest(ValueError):
    """Client error: malformed or unsupported factor request."""


def _positive_int(doc: Dict[str, Any], field: str, default: int) -> int:
    value = doc.get(field, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise BadRequest(f"{field!r} must be a positive integer")
    return value


def parse_job_request(doc: Any) -> Dict[str, Any]:
    """Validate client JSON into the normalized job spec dict.

    Exactly one of ``circuit`` (a name or path the worker can resolve
    via :func:`repro.circuits.load_circuit`) or ``eqn`` (inline
    equation-format text) selects the network.  Everything else is
    optional with the CLI's defaults.
    """
    if not isinstance(doc, dict):
        raise BadRequest("request body must be a JSON object")
    circuit = doc.get("circuit")
    eqn = doc.get("eqn")
    if bool(circuit) == bool(eqn):
        raise BadRequest("provide exactly one of 'circuit' or 'eqn'")
    if circuit is not None and not isinstance(circuit, str):
        raise BadRequest("'circuit' must be a string")
    if eqn is not None:
        if not isinstance(eqn, str):
            raise BadRequest("'eqn' must be a string")
        if len(eqn) > MAX_EQN_BYTES:
            raise BadRequest(
                f"'eqn' exceeds the {MAX_EQN_BYTES // (1024 * 1024)} MiB limit"
            )
    algorithm = doc.get("algorithm", "sequential")
    searcher = doc.get("searcher", "pingpong")
    klass = doc.get("class")
    if klass is not None:
        if klass not in CLASSES:
            raise BadRequest(
                f"unknown class {klass!r}; expected "
                f"{' or '.join(CLASSES)}"
            )
        # 'class' may restate, but not contradict, what it selects.
        for field, value in zip(("algorithm", "searcher"), CLASSES[klass]):
            if field in doc and doc[field] != value:
                raise BadRequest(
                    f"'class': {klass!r} conflicts with explicit "
                    f"{field} {doc[field]!r}"
                )
        algorithm, searcher = CLASSES[klass]
    if algorithm not in ALGORITHMS:
        raise BadRequest(
            f"unknown algorithm {algorithm!r}; expected one of "
            f"{', '.join(ALGORITHMS)}, or a 'class' "
            f"({' or '.join(CLASSES)})"
        )
    if searcher not in SEARCHERS:
        raise BadRequest(
            f"unknown searcher {searcher!r}; expected one of "
            f"{', '.join(SEARCHERS)}"
        )
    scale = doc.get("scale", 1.0)
    if not isinstance(scale, (int, float)) or isinstance(scale, bool) or scale <= 0:
        raise BadRequest("'scale' must be a positive number")
    node_budget = doc.get("node_budget")
    if node_budget is not None and (
        not isinstance(node_budget, int) or isinstance(node_budget, bool)
        or node_budget < 1
    ):
        raise BadRequest("'node_budget' must be a positive integer")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise BadRequest("'params' must be an object")
    tenant = doc.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise BadRequest("'tenant' must be a non-empty string")
    return {
        "circuit": circuit,
        "eqn": eqn,
        "algorithm": algorithm,
        "procs": _positive_int(doc, "procs", 4),
        "searcher": searcher,
        "scale": float(scale),
        "node_budget": node_budget,
        "params": params,
        "tenant": tenant,
        "wait": bool(doc.get("wait", True)),
        "include_network": bool(doc.get("include_network", False)),
    }


def job_cache_key(spec: Dict[str, Any], network) -> str:
    """The canonical content digest shared with the engine cache."""
    return canonical_job_key(
        network,
        spec["algorithm"],
        spec["procs"],
        params=spec["params"],
        searcher=spec["searcher"],
        node_budget=spec["node_budget"],
    )


def estimate_kc_footprint(network) -> int:
    """Rough per-job memory footprint: cube count x literal count.

    The dominant allocation of every factorization path is the
    kernel-cube matrix, whose row/column dimensions grow with the
    network's cubes and distinct literals — so their product is a cheap,
    monotone proxy the gateway's load-shed tier can budget against
    without resolving anything per-node.
    """
    cubes = sum(len(sop) for sop in network.nodes.values())
    lits = network.literal_count()
    return max(1, cubes) * max(1, lits)


def result_document(
    spec: Dict[str, Any], job_result, worker: Optional[int] = None
) -> Dict[str, Any]:
    """The JSON-serializable answer built from an engine JobResult."""
    doc = {
        "circuit": job_result.circuit,
        "algorithm": job_result.algorithm,
        "procs": job_result.procs,
        "searcher": spec["searcher"],
        "status": str(job_result.status),
        "initial_lc": job_result.initial_lc,
        "final_lc": job_result.final_lc,
        "degraded": job_result.degraded,
        "attempts": job_result.attempts,
        "elapsed": job_result.elapsed,
    }
    if worker is not None:
        doc["worker"] = worker
    if spec.get("include_network"):
        network = getattr(job_result.payload, "network", None)
        if network is not None:
            from repro.network.eqn import write_eqn

            doc["eqn"] = write_eqn(network)
    return doc
