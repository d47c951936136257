"""The async HTTP gateway: sharded dispatch, coalescing, admission.

One asyncio event loop fronts N worker *processes*
(:mod:`repro.serve.worker`).  A factor request is normalized
(:func:`repro.serve.protocol.parse_job_request`), content-hashed with
the same canonical digest the engine caches use, and then travels the
shortest path that can answer it:

1. the gateway's in-memory :class:`~repro.service.cache.ResultCache`
   of result documents (``cache: "gateway"``),
2. an identical job already in flight — the request *coalesces* onto it
   and shares the one computation (``coalesced: true``),
3. the content-hash shard's worker, which consults the shared
   persistent :class:`~repro.serve.diskcache.DiskCache` (``"disk"``),
   its engine's memory cache (``"memory"``), or computes
   (``"computed"``).

Admission control rejects before work is queued: a per-tenant token
bucket (429 ``rate_limited``) and a bound on distinct in-flight
computations (429 ``overloaded``).  Worker death — detected by pipe EOF
or the liveness monitor — respawns the shard and re-dispatches its
outstanding requests, so client futures survive a crash (PR 5's chaos
story, at the serving layer).

Endpoints::

    POST /v1/factor          submit (wait=true blocks for the result)
    GET  /v1/jobs/<id>       job status; ?watch=1 streams NDJSON to done
    GET  /healthz            aggregated gateway + per-worker health
    GET  /readyz             200 once every worker is up, else 503
    GET  /metrics            counters, latency percentiles, cache stats
"""

from __future__ import annotations

import asyncio
import itertools
import os
import random
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.export import assemble_request_trace, trace_to_chrome
from repro.obs.flight import auto_dump, flight_recorder, set_flight_dir
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.obs.prom import render_prometheus
from repro.obs.slo import SLOTracker
from repro.obs.tracer import SpanLog, make_trace_id
from repro.serve import httpio
from repro.serve.diskcache import DiskCache
from repro.serve.durability import JobJournal
from repro.serve.protocol import (
    BadRequest,
    estimate_kc_footprint,
    job_cache_key,
    parse_job_request,
)
from repro.serve.router import TenantRateLimiter, shard_for
from repro.serve.worker import WorkerHandle
from repro.service.cache import ResultCache

__all__ = ["GatewayConfig", "Gateway", "RateLimited", "Overloaded",
           "LoadShed", "ShardFailing"]


class RateLimited(Exception):
    """Tenant token bucket is empty."""

    def __init__(self, tenant: str, retry_after: float):
        super().__init__(f"tenant {tenant!r} is rate limited")
        self.tenant = tenant
        self.retry_after = retry_after


class Overloaded(Exception):
    """The bounded in-flight computation queue is full."""


class LoadShed(Exception):
    """Estimated KC-matrix footprint budget is exhausted (429)."""

    def __init__(self, footprint: int, budget: int, retry_after: float):
        super().__init__(
            f"estimated footprint {footprint} over budget {budget}")
        self.footprint = footprint
        self.budget = budget
        self.retry_after = retry_after


class ShardFailing(Exception):
    """The request's shard is circuit-broken and no fallback is alive
    (503 with Retry-After)."""

    def __init__(self, worker_id: int, retry_after: float):
        super().__init__(f"shard {worker_id} is failing")
        self.worker_id = worker_id
        self.retry_after = retry_after


@dataclass
class GatewayConfig:
    """Everything ``repro serve`` exposes as flags, plus test knobs."""

    host: str = "127.0.0.1"
    port: int = 8337
    workers: int = 2
    cache_dir: Optional[str] = None
    #: distinct computations allowed in flight before 429 overloaded.
    max_inflight: int = 64
    #: per-tenant sustained requests/second (None disables limiting).
    rate_limit: Optional[float] = None
    burst: Optional[float] = None
    #: capacity of the gateway-level result-document LRU.
    mem_cache_capacity: int = 512
    #: seconds a wait=true request blocks before answering 202 pending.
    request_timeout: float = 120.0
    #: seconds /healthz waits for a worker's live snapshot.
    health_timeout: float = 1.0
    monitor_interval: float = 0.25
    respawn: bool = True
    #: write-ahead job journal under ``<cache_dir>/journal`` (requires a
    #: cache dir; accepted-but-unfinished jobs replay on restart).
    journal: bool = True
    #: byte budget for the persistent result cache (None = unbounded).
    cache_max_bytes: Optional[int] = None
    #: worker respawn backoff: base delay doubles per consecutive crash
    #: (jittered +/-50%), capped; the first respawn is immediate.
    respawn_backoff: float = 0.05
    respawn_backoff_max: float = 2.0
    #: consecutive fast crashes before a shard's breaker opens.
    crash_loop_threshold: int = 5
    #: uptime that counts a worker as healthy again (resets the streak).
    crash_reset_after: float = 5.0
    #: seconds a tripped breaker waits before the half-open respawn.
    breaker_cooldown: float = 1.0
    #: load-shed budget on summed estimated KC-matrix footprints of
    #: in-flight computations (None disables the tier).
    max_footprint: Optional[int] = None
    engine_opts: Optional[Dict[str, Any]] = None
    #: finished jobs kept for /v1/jobs lookups.
    job_registry_capacity: int = 4096
    #: mint a trace per request and merge worker span batches into
    #: ``GET /v1/jobs/<id>/trace``.  Span recording is a few dict
    #: appends per request (not per engine event) — cheap enough to
    #: leave on; set False to drop even that.
    trace_requests: bool = True
    #: where flight-recorder dumps land; defaults to
    #: ``<cache_dir>/flight`` when a cache dir is configured.
    flight_dir: Optional[str] = None


class Job:
    """One client request's lifecycle entry in the job registry."""

    __slots__ = ("job_id", "key", "tenant", "spec", "status", "result",
                 "error", "cache", "coalesced", "worker", "created",
                 "finished", "done", "pins", "trace_id", "spans",
                 "request_span", "dispatch_span", "join_span",
                 "worker_trace")

    def __init__(self, job_id: str, key: str, tenant: str,
                 spec: Dict[str, Any]):
        self.job_id = job_id
        self.key = key
        self.tenant = tenant
        self.spec = spec
        self.status = "pending"
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None
        self.cache: Optional[str] = None
        self.coalesced = False
        self.worker: Optional[int] = None
        self.created = time.monotonic()
        self.finished: Optional[float] = None
        self.done = asyncio.Event()
        #: watcher streams currently attached; pinned jobs are never
        #: evicted from the registry ring.
        self.pins = 0
        #: distributed-trace state (None when tracing is disabled).
        self.trace_id: Optional[str] = None
        self.spans: Optional[SpanLog] = None
        self.request_span: Optional[Dict[str, Any]] = None
        self.dispatch_span: Optional[Dict[str, Any]] = None
        self.join_span: Optional[Dict[str, Any]] = None
        self.worker_trace: Optional[Dict[str, Any]] = None

    @property
    def elapsed(self) -> float:
        end = self.finished if self.finished is not None else time.monotonic()
        return end - self.created

    def finish(self, result: Dict[str, Any], cache: str) -> None:
        self.result = result
        self.cache = cache
        self.status = "done"
        self.finished = time.monotonic()
        self.done.set()

    def fail(self, error: str) -> None:
        self.error = error
        self.status = "failed"
        self.finished = time.monotonic()
        self.done.set()

    def to_doc(self, with_result: bool = True) -> Dict[str, Any]:
        doc = {
            "job_id": self.job_id,
            "status": self.status,
            "tenant": self.tenant,
            "coalesced": self.coalesced,
            "cache": self.cache,
            "elapsed": self.elapsed,
        }
        if self.trace_id is not None:
            doc["trace_id"] = self.trace_id
        if self.worker is not None:
            doc["worker"] = self.worker
        if self.error is not None:
            doc["error"] = self.error
        if with_result and self.result is not None:
            doc["result"] = self.result
        return doc


@dataclass
class _Inflight:
    """One dispatched computation and every job waiting on it."""

    req_id: str
    key: str
    worker_id: int
    msg: Dict[str, Any]
    jobs: List[Job] = field(default_factory=list)
    #: estimated KC-matrix footprint charged against the shed budget.
    footprint: int = 0


class Gateway:
    """The serving tier's front door.  Use::

        gw = Gateway(GatewayConfig(port=0, workers=2))
        await gw.start()
        ...  # gw.port is the bound port
        await gw.stop()
    """

    def __init__(self, config: Optional[GatewayConfig] = None):
        self.config = config or GatewayConfig()
        if self.config.workers < 1:
            raise ValueError("workers must be >= 1")
        self.metrics = MetricsRegistry()
        self.cache = ResultCache(
            capacity=self.config.mem_cache_capacity, metrics=self.metrics
        )
        self.slo = SLOTracker()
        self.flight = flight_recorder(proc="gateway")
        self.disk: Optional[DiskCache] = None
        self.journal: Optional[JobJournal] = None
        self._footprint_inflight = 0
        self.limiter = TenantRateLimiter(
            self.config.rate_limit, self.config.burst
        )
        self._handles: List[WorkerHandle] = []
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._inflight: Dict[str, _Inflight] = {}
        #: worker_id -> req_id -> _Inflight (for crash re-dispatch).
        self._outstanding: Dict[int, Dict[str, _Inflight]] = {}
        self._health_waiters: Dict[str, asyncio.Future] = {}
        self._network_cache: "OrderedDict[Any, Any]" = OrderedDict()
        self._seq = itertools.count()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._monitor_task: Optional[asyncio.Task] = None
        self._stopping = False
        self._started_at: Optional[float] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        assert self._server is not None, "gateway is not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    @property
    def flight_dir(self) -> Optional[str]:
        """Effective auto-dump directory (config, else under cache_dir)."""
        if self.config.flight_dir:
            return self.config.flight_dir
        if self.config.cache_dir:
            return os.path.join(self.config.cache_dir, "flight")
        return None

    async def start(self) -> None:
        self._loop = asyncio.get_event_loop()
        self._started_at = time.monotonic()
        if self.flight_dir:
            set_flight_dir(self.flight_dir)
        if self.config.cache_dir:
            self.disk = DiskCache(
                self.config.cache_dir,
                max_bytes=self.config.cache_max_bytes,
            )
        for worker_id in range(self.config.workers):
            handle = WorkerHandle(
                worker_id,
                self.config.cache_dir,
                on_message=self._on_worker_message_threadsafe,
                on_eof=self._on_worker_eof_threadsafe,
                engine_opts=self.config.engine_opts,
                flight_dir=self.flight_dir,
            )
            self._handles.append(handle)
            self._outstanding[worker_id] = {}
            handle.spawn()
        # The journal replays after workers exist (replayed jobs
        # dispatch immediately) but before the socket opens, so a
        # restarted gateway's /v1/jobs knows every surviving job before
        # the first client can ask.
        if self.config.cache_dir and self.config.journal:
            self.journal = JobJournal(self.config.cache_dir)
            self._replay_journal()
        # Workers spawn before the listening socket exists so forked
        # children never inherit (and pin open) the server port.
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self._monitor_task = asyncio.ensure_future(self._monitor())

    async def wait_ready(self, timeout: float = 10.0) -> bool:
        """Block until every worker said hello (or the timeout passes)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if all(h.ready and h.alive() for h in self._handles):
                return True
            await asyncio.sleep(0.02)
        return all(h.ready and h.alive() for h in self._handles)

    async def stop(self) -> None:
        """Graceful shutdown: close the server, drain workers, fail
        whatever could not be answered.  Leaks no processes."""
        self._stopping = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            try:
                await self._monitor_task
            except (asyncio.CancelledError, Exception):
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_event_loop()
        await asyncio.gather(*[
            loop.run_in_executor(None, handle.shutdown)
            for handle in self._handles
        ])
        for infl in list(self._inflight.values()):
            for job in infl.jobs:
                if not job.done.is_set():
                    # Deliberately no journal "done" record: a stopped
                    # gateway's unfinished jobs must replay on restart.
                    job.fail("gateway stopped")
        self._inflight.clear()
        self._footprint_inflight = 0
        for pending in self._outstanding.values():
            pending.clear()
        if self.journal is not None:
            self.journal.close()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # worker plumbing (reader-thread -> loop bridge)
    # ------------------------------------------------------------------

    def _call_threadsafe(self, fn, *args) -> None:
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(fn, *args)
        except RuntimeError:  # loop shut down mid-call
            pass

    def _on_worker_message_threadsafe(self, handle, generation, msg) -> None:
        self._call_threadsafe(self._on_worker_message, handle, generation, msg)

    def _on_worker_eof_threadsafe(self, handle, generation) -> None:
        self._call_threadsafe(self._on_worker_dead, handle, generation)

    def _on_worker_message(self, handle: WorkerHandle, generation: int,
                           msg: Dict[str, Any]) -> None:
        if generation != handle.generation:
            return  # a dead incarnation's reader draining its pipe
        op = msg.get("op")
        if op == "hello":
            handle.ready = True
            handle.pid = msg.get("pid")
            if handle.failing:
                # Half-open probe came up: close the breaker.  The
                # crash streak survives until real uptime resets it, so
                # a crash right after hello re-opens immediately.
                handle.failing = False
                self.metrics.inc("breaker_closes")
        elif op == "result":
            pending = self._outstanding[handle.worker_id].pop(
                msg.get("id"), None
            )
            if pending is not None:
                self._complete(pending, msg)
        elif op in ("health", "ping"):
            handle.last_health = msg
            waiter = self._health_waiters.pop(msg.get("id"), None)
            if waiter is not None and not waiter.done():
                waiter.set_result(msg)

    def _on_worker_dead(self, handle: WorkerHandle, generation: int) -> None:
        """Crash path: respawn the shard (with backoff) or trip its
        crash-loop breaker, then re-dispatch / re-shard its queue."""
        if self._stopping or generation != handle.generation:
            return
        if handle.alive() and handle.ready:
            return  # spurious (e.g. pipe hiccup already superseded)
        if handle.respawn_pending:
            return  # backoff timer or breaker probe already scheduled
        handle.crashes += 1
        uptime = (
            time.monotonic() - handle.spawned_at
            if handle.spawned_at is not None else 0.0
        )
        if uptime >= self.config.crash_reset_after:
            handle.consecutive_crashes = 1
        else:
            handle.consecutive_crashes += 1
        self.metrics.inc("worker_crashes")
        pending = list(self._outstanding[handle.worker_id].values())
        # The dying process cannot dump its own ring, so the gateway
        # dumps what IT saw: the requests dispatched to the dead shard.
        self.flight.record(
            "crash", f"worker-{handle.worker_id}-dead",
            worker=handle.worker_id, pid=handle.pid,
            generation=handle.generation, pending=len(pending),
            consecutive=handle.consecutive_crashes,
        )
        auto_dump(f"worker-{handle.worker_id}-crash", self.flight)
        if not self.config.respawn:
            self._fail_shard_pending(handle, "worker crashed")
            return
        if handle.consecutive_crashes >= self.config.crash_loop_threshold:
            self._trip_breaker(handle)
            return
        delay = self._respawn_delay(handle.consecutive_crashes)
        handle.respawn_pending = True
        if delay <= 0:
            self._respawn_now(handle)
        else:
            self.metrics.inc("respawn_backoffs")
            assert self._loop is not None
            self._loop.call_later(delay, self._respawn_now, handle)

    def _respawn_delay(self, consecutive: int) -> float:
        """Jittered exponential backoff; the first respawn is free."""
        if consecutive <= 1:
            return 0.0
        base = self.config.respawn_backoff * (2 ** (consecutive - 2))
        delay = min(base, self.config.respawn_backoff_max)
        return delay * random.uniform(0.5, 1.5)

    def _respawn_now(self, handle: WorkerHandle) -> None:
        if self._stopping:
            handle.respawn_pending = False
            return
        handle.spawn()
        self._resend_outstanding(handle)

    def _resend_outstanding(self, handle: WorkerHandle) -> None:
        """Re-dispatch everything queued on the shard — both the jobs
        pending at death and any accepted during the backoff window."""
        for infl in list(self._outstanding[handle.worker_id].values()):
            for job in infl.jobs:
                if job.spans is not None:
                    # An instant marker in the merged trace: the retried
                    # attempt keeps the original trace_id (infl.msg is
                    # re-sent verbatim), and this shows why it restarted.
                    job.spans.event(
                        "redispatch",
                        parent=(job.request_span or {}).get("id"),
                        attrs={"worker": handle.worker_id,
                               "generation": handle.generation},
                    )
            handle.send(infl.msg)
            self.metrics.inc("requests_redispatched")

    def _fail_shard_pending(self, handle: WorkerHandle, error: str) -> None:
        for infl in list(self._outstanding[handle.worker_id].values()):
            self._inflight.pop(infl.key, None)
            self._footprint_inflight = max(
                0, self._footprint_inflight - infl.footprint)
            for job in infl.jobs:
                job.fail(error)
                self._journal_done(job)
                self._observe_slo(job, ok=False)
        self._outstanding[handle.worker_id].clear()

    def _trip_breaker(self, handle: WorkerHandle) -> None:
        """Crash loop: stop burning respawns, mark the shard failing,
        move its queue to a surviving shard, retry after a cooldown."""
        handle.failing = True
        handle.respawn_pending = True  # blocks monitor re-entry
        self.metrics.inc("worker_crash_loops")
        self.flight.record(
            "crash", f"worker-{handle.worker_id}-crash-loop",
            worker=handle.worker_id,
            consecutive=handle.consecutive_crashes,
            cooldown=self.config.breaker_cooldown,
        )
        auto_dump(f"worker-{handle.worker_id}-crash-loop", self.flight)
        fallback = self._fallback_worker(handle.worker_id)
        if fallback is None:
            self._fail_shard_pending(handle, "shard failing")
        else:
            self._reshard(handle.worker_id, fallback)
        assert self._loop is not None
        self._loop.call_later(
            self.config.breaker_cooldown, self._breaker_probe, handle)

    def _breaker_probe(self, handle: WorkerHandle) -> None:
        """Half-open: one fresh incarnation.  Its hello clears
        ``failing``; another fast crash re-opens the breaker."""
        if self._stopping:
            handle.respawn_pending = False
            return
        self._respawn_now(handle)

    def _fallback_worker(self, worker_id: int) -> Optional[int]:
        """The next shard that can absorb re-routed work, or None."""
        n = len(self._handles)
        for offset in range(1, n):
            cand = (worker_id + offset) % n
            handle = self._handles[cand]
            if not handle.failing and handle.alive():
                return cand
        return None

    def _reshard(self, from_id: int, to_id: int) -> None:
        moved = list(self._outstanding[from_id].values())
        self._outstanding[from_id].clear()
        for infl in moved:
            infl.worker_id = to_id
            self._outstanding[to_id][infl.req_id] = infl
            self._handles[to_id].send(infl.msg)
            self.metrics.inc("requests_resharded")

    async def _monitor(self) -> None:
        """Liveness sweep: catches deaths whose pipe EOF got lost."""
        while True:
            await asyncio.sleep(self.config.monitor_interval)
            for handle in self._handles:
                if handle.process is not None and not handle.alive():
                    self._on_worker_dead(handle, handle.generation)

    def _attach_trace(self, job: Job, batch: Optional[Dict[str, Any]],
                      ok: bool) -> None:
        """Close the job's gateway spans and adopt the worker's batch.

        A coalesced follower shares the leader's worker batch but hangs
        it off its own ``coalesce-join`` span (the leader's dispatch-span
        id means nothing in the follower's log)."""
        if job.spans is None:
            return
        if batch is not None:
            own = dict(batch)
            if job.coalesced:
                join = job.join_span or job.request_span
                own["remote_parent"] = join["id"] if join else None
            job.worker_trace = own
        if job.dispatch_span is not None:
            job.spans.finish(job.dispatch_span, error=not ok)
        if job.request_span is not None:
            job.spans.finish(job.request_span, error=not ok)

    def _observe_slo(self, job: Job, ok: bool) -> None:
        self.slo.observe(job.tenant, job.spec["algorithm"], job.elapsed, ok)

    def _journal_done(self, job: Job) -> None:
        if self.journal is not None:
            self.journal.append("done", job.job_id, status=job.status)

    def _complete(self, infl: _Inflight, msg: Dict[str, Any]) -> None:
        self._inflight.pop(infl.key, None)
        self._footprint_inflight = max(
            0, self._footprint_inflight - infl.footprint)
        batch = msg.get("trace")
        if msg.get("ok"):
            doc = msg["result"]
            source = msg.get("cache", "computed")
            self.cache.put(infl.key, doc)
            self.metrics.inc("results_ok")
            self.metrics.inc(f"results_from_{source}")
            for job in infl.jobs:
                job.worker = infl.worker_id
                self._attach_trace(job, batch, ok=True)
                job.finish(doc, source if not job.coalesced else "coalesced")
                self._journal_done(job)
                self.metrics.histogram("request_seconds").observe(job.elapsed)
                self._observe_slo(job, ok=True)
        else:
            error = msg.get("error", "worker error")
            self.metrics.inc("results_failed")
            self.flight.record("error", "result-failed",
                               worker=infl.worker_id, error=error)
            auto_dump("request-failed", self.flight)
            for job in infl.jobs:
                job.worker = infl.worker_id
                self._attach_trace(job, batch, ok=False)
                job.fail(error)
                self._journal_done(job)
                self._observe_slo(job, ok=False)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def _resolve_network(self, spec: Dict[str, Any]):
        """The request's network (named circuits memoized per gateway)."""
        if spec["eqn"]:
            from repro.network.eqn import read_eqn

            try:
                return read_eqn(spec["eqn"], name=spec.get("circuit") or "inline")
            except ValueError as exc:
                raise BadRequest(f"bad eqn: {exc}") from None
        cache_key = (spec["circuit"], spec["scale"])
        network = self._network_cache.get(cache_key)
        if network is None:
            from repro.circuits import load_circuit

            try:
                network = load_circuit(spec["circuit"], scale=spec["scale"])
            except ValueError as exc:
                # Unknown name, scale combined with a netlist path, or a
                # netlist parse error — all client errors.
                raise BadRequest(str(exc)) from None
            self._network_cache[cache_key] = network
            while len(self._network_cache) > 64:
                self._network_cache.popitem(last=False)
        return network

    def submit(
        self,
        doc: Any,
        trace_parent: Optional[Tuple[str, Optional[int]]] = None,
    ) -> Job:
        """Admit, hash, and route one request; returns its Job entry.

        *trace_parent* is an inbound ``(trace_id, parent_span_id)`` pair
        (from an ``X-Repro-Trace`` header); without one, a fresh trace
        id is minted.  Raises
        :class:`~repro.serve.protocol.BadRequest`,
        :class:`RateLimited`, or :class:`Overloaded` — mapped to HTTP
        400/429 by the handler, usable directly by in-process callers.
        """
        spec = parse_job_request(doc)
        self.metrics.inc("requests_total")
        tenant = spec["tenant"]
        if not self.limiter.allow(tenant):
            self.metrics.inc("requests_rate_limited")
            raise RateLimited(tenant, self.limiter.retry_after(tenant))
        if len(self._inflight) >= self.config.max_inflight:
            self.metrics.inc("requests_overloaded")
            raise Overloaded(
                f"{len(self._inflight)} computations in flight "
                f"(max {self.config.max_inflight})"
            )
        network = self._resolve_network(spec)
        key = job_cache_key(spec, network)
        footprint = 0
        if self.config.max_footprint is not None:
            footprint = estimate_kc_footprint(network)
            needs_compute = key not in self._inflight and key not in self.cache
            # Shed only requests that would start a fresh computation,
            # and never an idle gateway — one oversized job must still
            # make progress when nothing else is running.
            if (needs_compute and self._footprint_inflight > 0
                    and self._footprint_inflight + footprint
                    > self.config.max_footprint):
                self.metrics.inc("requests_shed")
                raise LoadShed(footprint, self.config.max_footprint,
                               retry_after=1.0)
        job = Job(f"j{next(self._seq):06d}", key, tenant, spec)
        if self.config.trace_requests:
            job.trace_id = trace_parent[0] if trace_parent else make_trace_id()
            job.spans = SpanLog(proc="gateway")
            attrs: Dict[str, Any] = {
                "job": job.job_id,
                "trace_id": job.trace_id,
                "tenant": tenant,
                "algorithm": spec["algorithm"],
            }
            if trace_parent and trace_parent[1] is not None:
                attrs["client_parent"] = trace_parent[1]
            job.request_span = job.spans.start(
                "request", track="gateway", attrs=attrs
            )
        self._register(job)
        if self.journal is not None:
            self.journal.append(
                "accepted", job.job_id, seq=int(job.job_id[1:]),
                key=key, tenant=tenant, body=doc,
            )
        try:
            self._answer_or_dispatch(job, key, spec, footprint)
        except ShardFailing:
            # The client gets the 503; complete the job so the journal
            # retires it (the client owns the retry, not the replay).
            job.fail("shard failing")
            self._journal_done(job)
            raise
        return job

    def _answer_or_dispatch(self, job: Job, key: str,
                            spec: Dict[str, Any], footprint: int) -> None:
        """Cache hit, coalesce, or dispatch — shared by live submission
        and journal replay."""
        cached = self.cache.get(key)
        if cached is not None:
            if job.spans is not None:
                job.spans.event(
                    "cache-hit",
                    parent=job.request_span["id"],
                    attrs={"tier": "gateway"},
                )
                self._attach_trace(job, None, ok=True)
            job.finish(cached, "gateway")
            self._journal_done(job)
            self.metrics.inc("results_ok")
            self.metrics.inc("results_from_gateway")
            self.metrics.histogram("request_seconds").observe(job.elapsed)
            self._observe_slo(job, ok=True)
            return

        infl = self._inflight.get(key)
        if infl is not None:
            job.coalesced = True
            infl.jobs.append(job)
            self.metrics.inc("requests_coalesced")
            if job.spans is not None:
                # The follower's trace joins the leader's computation;
                # both ids are recorded so either trace can be found
                # from the other.
                leader = infl.jobs[0]
                job.join_span = job.spans.event(
                    "coalesce-join",
                    parent=job.request_span["id"],
                    attrs={"leader_job": leader.job_id,
                           "leader_trace_id": leader.trace_id,
                           "follower_trace_id": job.trace_id},
                )
            return

        worker_id = shard_for(key, len(self._handles))
        if self._handles[worker_id].failing:
            fallback = self._fallback_worker(worker_id)
            if fallback is None:
                self.metrics.inc("requests_shard_failing")
                raise ShardFailing(
                    worker_id, self.config.breaker_cooldown)
            self.metrics.inc("requests_resharded")
            worker_id = fallback
        wire_spec = {k: spec[k] for k in (
            "circuit", "eqn", "algorithm", "procs", "searcher", "scale",
            "node_budget", "params", "include_network",
        )}
        msg = {"op": "factor", "id": job.job_id, "key": key,
               "job": wire_spec}
        if job.spans is not None:
            job.dispatch_span = job.spans.start(
                "dispatch",
                parent=job.request_span["id"],
                attrs={"worker": worker_id},
            )
            msg["trace"] = {"trace_id": job.trace_id,
                            "parent": job.dispatch_span["id"]}
        infl = _Inflight(
            req_id=job.job_id, key=key, worker_id=worker_id,
            msg=msg,
            jobs=[job],
            footprint=footprint,
        )
        self._inflight[key] = infl
        self._footprint_inflight += footprint
        self._outstanding[worker_id][job.job_id] = infl
        if self.journal is not None:
            self.journal.append("dispatched", job.job_id, worker=worker_id)
        self.metrics.inc("requests_dispatched")
        self.flight.record("dispatch", job.job_id, worker=worker_id,
                           tenant=job.tenant, algorithm=spec["algorithm"])
        # A send on a just-crashed pipe is fine: the request stays in
        # _outstanding and the respawn path re-dispatches it.
        self._handles[worker_id].send(infl.msg)

    # ------------------------------------------------------------------
    # journal replay
    # ------------------------------------------------------------------

    def _replay_journal(self) -> None:
        """Re-admit every accepted-but-unfinished job from the journal.

        Runs during start(), before the listening socket exists.  Replay
        is idempotent: jobs re-key to the same canonical digest, so a
        computation that already landed in the disk cache answers
        immediately, identical requests coalesce, and anything else
        re-dispatches to its shard.
        """
        assert self.journal is not None
        replay = self.journal.replay()
        if replay.max_seq >= 0:
            # Continue the id sequence past everything journaled so a
            # restarted gateway never reuses a recovered job's id.
            self._seq = itertools.count(replay.max_seq + 1)
        if replay.torn:
            self.metrics.inc("journal_torn_records", replay.torn)
            self.flight.record("journal", "torn-records", torn=replay.torn)
        # Finished jobs first: they answer straight from the disk cache
        # and make GET /v1/jobs/<id> survive the crash for clients that
        # had not collected their result yet.  Compaction keeps this set
        # small (fully-done segments are deleted).
        for rec in replay.finished:
            try:
                self._submit_replay(rec)
                self.metrics.inc("journal_restored")
            except Exception as exc:  # noqa: BLE001 - must not kill boot
                self.metrics.inc("journal_replay_failed")
                self.flight.record(
                    "journal", "restore-failed",
                    job=rec.get("job_id"), error=str(exc),
                )
        for rec in replay.unfinished:
            try:
                self._submit_replay(rec)
                self.metrics.inc("journal_replayed")
            except Exception as exc:  # noqa: BLE001 - must not kill boot
                # Unreplayable (bad body, unknown circuit after an
                # upgrade...): record a failed completion so compaction
                # retires it instead of replaying forever.
                self.metrics.inc("journal_replay_failed")
                self.flight.record(
                    "journal", "replay-failed",
                    job=rec.get("job_id"), error=str(exc),
                )
                self.journal.append(
                    "done", rec["job_id"], status="failed",
                    error=f"replay failed: {exc}",
                )
        self.journal.compact()

    def _submit_replay(self, rec: Dict[str, Any]) -> Job:
        """Re-admit one journaled job, bypassing admission control —
        it was already admitted in a previous life."""
        spec = parse_job_request(rec["body"])
        network = self._resolve_network(spec)
        key = job_cache_key(spec, network)
        job = Job(rec["job_id"], key, rec.get("tenant") or spec["tenant"],
                  spec)
        self._register(job)
        # The gateway memory cache died with the old process, but the
        # disk cache did not: probe it directly so replay answers
        # without a worker round-trip when the result already exists.
        # The job finishes from the disk document without warming the
        # gateway LRU — restore must make GET /v1/jobs/<id> work, not
        # shadow the disk tier for fresh post-restart requests.
        if self.disk is not None:
            cached = self.disk.get(key)
            if cached is not None:
                job.finish(cached, "disk")
                self._journal_done(job)
                self.metrics.inc("results_ok")
                return job
        self._answer_or_dispatch(job, key, spec, footprint=0)
        return job

    def _register(self, job: Job) -> None:
        self._jobs[job.job_id] = job
        while len(self._jobs) > self.config.job_registry_capacity:
            evicted = False
            for job_id, tracked in self._jobs.items():
                # Never evict live jobs (max_inflight bounds them) or
                # jobs a watcher stream is still attached to.
                if tracked.done.is_set() and tracked.pins <= 0:
                    self._jobs.pop(job_id)
                    evicted = True
                    break
            if not evicted:
                break

    # ------------------------------------------------------------------
    # health aggregation
    # ------------------------------------------------------------------

    async def _worker_health(self, handle: WorkerHandle) -> Optional[Dict]:
        """One live health snapshot, or None if the worker is too busy."""
        assert self._loop is not None
        hid = f"h{next(self._seq):06d}"
        future: asyncio.Future = self._loop.create_future()
        self._health_waiters[hid] = future
        if not handle.send({"op": "health", "id": hid}):
            self._health_waiters.pop(hid, None)
            return None
        try:
            return await asyncio.wait_for(future, self.config.health_timeout)
        except asyncio.TimeoutError:
            self._health_waiters.pop(hid, None)
            return None

    async def _refresh_worker_health(self) -> None:
        """Pull a live health snapshot from every ready worker so the
        handles' ``last_health`` (which /metrics aggregates) is fresh."""
        for handle in self._handles:
            if handle.alive() and handle.ready:
                await self._worker_health(handle)

    async def health(self) -> Dict[str, Any]:
        """The /healthz document: gateway stats + per-worker snapshots."""
        workers: Dict[str, Any] = {}
        statuses = []
        for handle in self._handles:
            snap = handle.snapshot()
            reply = None
            if handle.alive() and handle.ready:
                reply = await self._worker_health(handle)
            if reply is None and handle.last_health is not None:
                reply = handle.last_health
                snap["stale"] = True
            elif reply is not None:
                snap["stale"] = False
            if reply is not None:
                snap["jobs_done"] = reply.get("jobs_done")
                snap["engine"] = reply.get("engine")
                if "disk_cache" in reply:
                    snap["disk_cache"] = reply["disk_cache"]
            if snap.get("failing"):
                statuses.append("failing-shard")
            elif not snap["alive"]:
                statuses.append("dead")
            else:
                engine = snap.get("engine") or {}
                statuses.append(engine.get("status", "ok"))
            workers[str(handle.worker_id)] = snap
        alive = sum(1 for h in self._handles if h.alive())
        if alive == 0:
            status = "failing"
        elif all(s == "ok" for s in statuses):
            status = "ok"
        else:
            status = "degraded"
        # SLO burn degrades (never fails) the aggregate: the tier still
        # serves, but somebody should look at the named paths.
        slo_problems = self.slo.problems()
        if status == "ok" and slo_problems:
            status = "degraded"
        return {
            "status": status,
            "ready": self.is_ready(),
            "slo": {
                "status": "degraded" if slo_problems else "ok",
                "problems": slo_problems,
                "objectives": self.slo.config.to_dict(),
            },
            "gateway": {
                "inflight": len(self._inflight),
                "footprint_inflight": self._footprint_inflight,
                "jobs_tracked": len(self._jobs),
                "workers_alive": alive,
                "workers_failing": sum(
                    1 for h in self._handles if h.failing),
                "workers": len(self._handles),
                "uptime_s": (
                    time.monotonic() - self._started_at
                    if self._started_at else 0.0
                ),
                "cache": self.cache.stats(),
                "journal": (
                    self.journal.stats()
                    if self.journal is not None else None
                ),
            },
            "workers": workers,
        }

    def is_ready(self) -> bool:
        return (
            not self._stopping
            and self._server is not None
            and all(h.ready and h.alive() for h in self._handles)
        )

    def metrics_document(self) -> Dict[str, Any]:
        """The /metrics document (also used by the load generator)."""
        latency = self.metrics.histogram("request_seconds")
        doc: Dict[str, Any] = {
            "gateway": self.metrics.snapshot(),
            "latency": {
                "p50": latency.percentile(50),
                "p95": latency.percentile(95),
                "p99": latency.percentile(99),
            },
            "cache": self.cache.stats(),
            "tenants": self.limiter.stats(),
            "workers": {
                str(h.worker_id): h.snapshot() for h in self._handles
            },
        }
        if self.disk is not None:
            doc["disk_cache"] = self.disk.stats()
        if self.journal is not None:
            doc["journal"] = self.journal.stats()
        # Rectangle-search v2 counters (pruning + canonical memo),
        # summed over the workers' latest health reports.
        rect: Dict[str, int] = {
            "rect_search_pruned_subtrees": 0,
            "rect_search_dominance_skips": 0,
            "rect_memo_hits": 0,
            "rect_memo_misses": 0,
            "rect_memo_evictions": 0,
        }
        for handle in self._handles:
            engine = (handle.last_health or {}).get("engine") or {}
            for name, value in (engine.get("rect_search") or {}).items():
                if name in rect:
                    rect[name] += int(value)
        doc["rect_search"] = rect
        # One cluster-wide registry view: the gateway's own snapshot
        # merged with every worker's (shipped in health replies since
        # repro.obs/2 — histograms carry samples, so pooled percentiles
        # are honest, and a pre-samples snapshot still merges coarsely).
        worker_snaps = [
            (h.last_health or {}).get("metrics") for h in self._handles
        ]
        doc["cluster"] = merge_snapshots(
            [doc["gateway"]] + [s for s in worker_snaps if s]
        )
        doc["slo"] = self.slo.snapshot()
        return doc

    def job_trace(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The merged request trace for a tracked job (None if unknown
        or tracing is off)."""
        job = self._jobs.get(job_id)
        if job is None or job.spans is None or job.trace_id is None:
            return None
        batches = [job.spans.batch()]
        if job.worker_trace is not None:
            batches.append(job.worker_trace)
        return assemble_request_trace(job.trace_id, job.job_id, batches)

    # ------------------------------------------------------------------
    # HTTP layer
    # ------------------------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                request = await httpio.read_http_request(reader)
                if request is None:
                    break
                if request.error is not None:
                    status, message = request.error
                    await httpio.send_json(
                        writer, status, {"error": message}, keep_alive=False
                    )
                    break
                keep = await self._route(request, writer)
                if not keep or not request.keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, request: httpio.HTTPRequest,
                     writer: asyncio.StreamWriter) -> bool:
        method, path = request.method, request.path
        if path == "/v1/factor":
            if method != "POST":
                await httpio.send_json(
                    writer, 405, {"error": "POST required"})
                return True
            return await self._http_factor(request, writer)
        if path.startswith("/v1/jobs/"):
            if method != "GET":
                await httpio.send_json(writer, 405, {"error": "GET required"})
                return True
            return await self._http_job(request, writer)
        if path == "/healthz" and method == "GET":
            doc = await self.health()
            await httpio.send_json(
                writer, 200 if doc["status"] != "failing" else 503, doc
            )
            return True
        if path == "/readyz" and method == "GET":
            ready = self.is_ready()
            await httpio.send_json(
                writer, 200 if ready else 503,
                {"ready": ready,
                 "workers_alive": sum(1 for h in self._handles if h.alive()),
                 "workers": len(self._handles)},
            )
            return True
        if path == "/metrics" and method == "GET":
            await self._refresh_worker_health()
            doc = self.metrics_document()
            if request.query.get("format") == "prom":
                await httpio.send_text(
                    writer, 200, render_prometheus(doc),
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                )
            else:
                await httpio.send_json(writer, 200, doc)
            return True
        await httpio.send_json(writer, 404, {"error": f"no route {path!r}"})
        return True

    async def _http_factor(self, request: httpio.HTTPRequest,
                           writer: asyncio.StreamWriter) -> bool:
        try:
            body = request.json()
        except ValueError:
            await httpio.send_json(
                writer, 400, {"error": "request body is not valid JSON"})
            return True
        trace_parent = _parse_trace_header(
            request.headers.get("x-repro-trace")
        )
        try:
            job = self.submit(body, trace_parent=trace_parent)
        except BadRequest as exc:
            await httpio.send_json(writer, 400, {"error": str(exc)})
            return True
        except RateLimited as exc:
            await httpio.send_json(
                writer, 429,
                {"error": "rate_limited", "tenant": exc.tenant,
                 "retry_after": exc.retry_after},
                extra_headers={"Retry-After": f"{exc.retry_after:.3f}"},
            )
            return True
        except Overloaded as exc:
            await httpio.send_json(
                writer, 429, {"error": "overloaded", "detail": str(exc)})
            return True
        except LoadShed as exc:
            await httpio.send_json(
                writer, 429,
                {"error": "load_shed", "footprint": exc.footprint,
                 "budget": exc.budget, "retry_after": exc.retry_after},
                extra_headers={"Retry-After": f"{exc.retry_after:.3f}"},
            )
            return True
        except ShardFailing as exc:
            await httpio.send_json(
                writer, 503,
                {"error": "shard_failing", "worker": exc.worker_id,
                 "retry_after": exc.retry_after},
                extra_headers={"Retry-After": f"{exc.retry_after:.3f}"},
            )
            return True
        wait = job.spec["wait"] and request.query.get("wait") != "0"
        if not wait:
            await httpio.send_json(writer, 202, job.to_doc(with_result=False))
            return True
        try:
            await asyncio.wait_for(
                job.done.wait(), self.config.request_timeout
            )
        except asyncio.TimeoutError:
            await httpio.send_json(writer, 202, job.to_doc(with_result=False))
            return True
        status = 200 if job.status == "done" else 500
        await httpio.send_json(writer, status, job.to_doc())
        return True

    async def _http_job(self, request: httpio.HTTPRequest,
                        writer: asyncio.StreamWriter) -> bool:
        job_id = request.path[len("/v1/jobs/"):]
        if job_id.endswith("/trace"):
            return await self._http_job_trace(
                job_id[: -len("/trace")], request, writer
            )
        job = self._jobs.get(job_id)
        if job is None:
            await httpio.send_json(
                writer, 404, {"error": f"unknown job {job_id!r}"})
            return True
        if request.query.get("watch") not in (None, "", "0"):
            # Pin the job while the watcher stream is attached so ring
            # eviction can never drop it out from under the stream.
            job.pins += 1
            try:
                await httpio.start_ndjson(writer)
                await httpio.send_ndjson_line(
                    writer, job.to_doc(with_result=False))
                if not job.done.is_set():
                    try:
                        await asyncio.wait_for(
                            job.done.wait(), self.config.request_timeout
                        )
                    except asyncio.TimeoutError:
                        pass
                await httpio.send_ndjson_line(writer, job.to_doc())
            finally:
                job.pins -= 1
            return False  # streamed responses close the connection
        await httpio.send_json(writer, 200, job.to_doc())
        return True

    async def _http_job_trace(self, job_id: str,
                              request: httpio.HTTPRequest,
                              writer: asyncio.StreamWriter) -> bool:
        job = self._jobs.get(job_id)
        if job is None:
            await httpio.send_json(
                writer, 404, {"error": f"unknown job {job_id!r}"})
            return True
        doc = self.job_trace(job_id)
        if doc is None:
            await httpio.send_json(
                writer, 404,
                {"error": f"no trace for job {job_id!r} "
                          "(tracing disabled?)"})
            return True
        if request.query.get("format") == "chrome":
            await httpio.send_json(writer, 200, trace_to_chrome(doc))
        else:
            await httpio.send_json(writer, 200, doc)
        return True


def _parse_trace_header(
    raw: Optional[str],
) -> Optional[Tuple[str, Optional[int]]]:
    """Parse ``X-Repro-Trace: <trace_id>[:<parent_span_id>]``.

    Unparseable headers yield None (mint a fresh trace) rather than a
    client error — trace context is advisory, never worth a 400.
    """
    if not raw:
        return None
    trace_id, _, parent = raw.partition(":")
    trace_id = trace_id.strip()
    if not trace_id or len(trace_id) > 64:
        return None
    parent = parent.strip()
    parent_id: Optional[int] = None
    if parent:
        try:
            parent_id = int(parent)
        except ValueError:
            parent_id = None
    return trace_id, parent_id
