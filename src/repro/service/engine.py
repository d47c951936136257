"""The batch factorization engine: workers, retries, degradation, cache.

:class:`FactorizationEngine` is the serving layer on top of the
algorithm substrate (:mod:`repro.rectangles`, :mod:`repro.parallel`).
It accepts :class:`~repro.service.jobs.FactorizationJob`\\ s, runs them on
a bounded thread pool in priority order, enforces per-attempt wall-clock
deadlines and rectangle-search node budgets, retries failures with
exponential backoff, and — mirroring the paper's DNF rows — *degrades*
instead of dying: a job whose exhaustive rectangle search blows its
budget or deadline is retried with the ping-pong heuristic, trading
quality for an answer.

Results are memoized in a content-addressed LRU cache
(:mod:`repro.service.cache`) keyed by the canonical network text and the
computation parameters, so repeated circuit × algorithm cells — common
across the paper's tables and across batch manifests — are computed
once.  A degradation memo remembers which requested configurations had
to fall back, so re-submissions skip straight to the fallback instead of
re-paying the timeout.  All activity feeds one
:class:`~repro.service.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import copy
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro import obs as _obs
from repro.machine.cancel import CancelToken, JobCancelled, cancel_scope
from repro.network.boolean_network import BooleanNetwork
from repro.obs.metrics import health_snapshot
from repro.rectangles.cover import KernelExtractionResult, kernel_extract
from repro.rectangles.search import BudgetExceeded, SearchBudget
from repro.service.breaker import BreakerBoard, BreakerState
from repro.service.cache import ResultCache, canonical_job_key
from repro.service.jobs import FactorizationJob, JobQueue, JobResult, JobStatus
from repro.service.metrics import MetricsRegistry

__all__ = [
    "JobTimeout",
    "SequentialRun",
    "BatchReport",
    "FactorizationEngine",
    "get_default_engine",
    "reset_default_engine",
]


class JobTimeout(Exception):
    """An attempt exceeded its wall-clock deadline."""


@dataclass
class SequentialRun:
    """Payload of a sequential job: the run record plus the network."""

    result: KernelExtractionResult
    network: BooleanNetwork

    @property
    def initial_lc(self) -> int:
        return self.result.initial_lc

    @property
    def final_lc(self) -> int:
        return self.result.final_lc


@dataclass
class BatchReport:
    """Everything one batch run produced, renderable for the CLI."""

    results: List[JobResult]
    wall_time: float
    metrics: Dict[str, Dict] = field(default_factory=dict)
    cache_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def done(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def failed(self) -> int:
        return len(self.results) - self.done

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.results if r.cache_hit)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "results": [r.to_dict() for r in self.results],
            "wall_time": self.wall_time,
            "metrics": self.metrics,
            "cache": self.cache_stats,
        }

    def render(self) -> str:
        header = (
            f"{'job':<10} {'circuit':<12} {'algorithm':<12} {'procs':>5} "
            f"{'status':<8} {'attempts':>8} {'cache':<5} {'lits':<14} {'time':>8}"
        )
        lines = [header, "-" * len(header)]
        for r in self.results:
            lits = (
                f"{r.initial_lc} -> {r.final_lc}"
                if r.initial_lc is not None and r.final_lc is not None
                else "—"
            )
            status = str(r.status) + ("*" if r.degraded else "")
            lines.append(
                f"{r.job_id:<10} {r.circuit:<12} {r.algorithm:<12} {r.procs:>5} "
                f"{status:<8} {r.attempts:>8} {'hit' if r.cache_hit else 'miss':<5} "
                f"{lits:<14} {r.elapsed:>7.3f}s"
            )
        lines.append(
            f"{self.done}/{len(self.results)} done ({self.failed} failed, "
            f"{self.cache_hits} cache hits) in {self.wall_time:.3f}s"
        )
        if self.cache_stats:
            s = self.cache_stats
            lines.append(
                f"cache: {s['hits']} hits / {s['misses']} misses "
                f"({100 * s['hit_rate']:.0f}% hit rate), "
                f"size {s['size']}/{s['capacity']}, "
                f"{s['evictions']} evictions"
            )
        if any(r.degraded for r in self.results):
            lines.append("* = degraded to the ping-pong heuristic (budget/deadline)")
        return "\n".join(lines)


class FactorizationEngine:
    """Bounded-concurrency batch runner with caching and degradation.

    Parameters
    ----------
    workers:
        Thread-pool size.  Defaults to 4 — enough to overlap jobs while
        the GIL serializes the pure-Python inner loops.
    cache:
        A :class:`ResultCache`, or None to create one wired to this
        engine's metrics.  Pass ``use_cache=False`` to disable lookups
        entirely (results are still computed, never reused).
    max_retries:
        Extra attempts after the first failure (total attempts =
        ``max_retries + 1``); per-job override via ``job.max_retries``.
    backoff / backoff_factor:
        Sleep ``backoff * backoff_factor**(attempt-1)`` seconds between
        attempts.
    """

    def __init__(
        self,
        workers: int = 4,
        cache: Optional[ResultCache] = None,
        metrics: Optional[MetricsRegistry] = None,
        use_cache: bool = True,
        max_retries: int = 2,
        backoff: float = 0.05,
        backoff_factor: float = 2.0,
        default_deadline: Optional[float] = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 30.0,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = cache if cache is not None else ResultCache(metrics=self.metrics)
        self.use_cache = use_cache
        self.max_retries = max_retries
        self.backoff = backoff
        self.backoff_factor = backoff_factor
        self.default_deadline = default_deadline
        self.queue = JobQueue()
        #: per-``algorithm:circuit`` breakers; a path that keeps failing
        #: trips open and is short-circuited to the sequential fallback.
        self.breakers = BreakerBoard(
            failure_threshold=breaker_threshold, cooldown=breaker_cooldown
        )
        self._id_lock = threading.Lock()
        self._next_id = 0
        self._busy_lock = threading.Lock()
        #: jobs currently executing on the pool (worker-pool liveness).
        self._busy = 0
        #: requested-key -> degraded job fields, so re-submissions of a
        #: configuration that already proved infeasible skip the timeout.
        self._degrade_memo: Dict[str, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # submission API
    # ------------------------------------------------------------------

    def submit(self, job: FactorizationJob) -> str:
        """Queue a job; returns its assigned id."""
        self._assign_id(job)
        self.metrics.inc("jobs_submitted")
        self.queue.put(job)
        return job.job_id

    def run_pending(self) -> List[JobResult]:
        """Drain the queue on the worker pool; results in dispatch order."""
        jobs = self.queue.drain()
        if not jobs:
            return []
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            futures = [pool.submit(self._run_job, job) for job in jobs]
            return [f.result() for f in futures]

    def run_batch(self, jobs: List[FactorizationJob]) -> BatchReport:
        """Submit *jobs*, run them all, and assemble a report."""
        with self.metrics.timer("batch") as timer:
            for job in jobs:
                self.submit(job)
            results = self.run_pending()
        return BatchReport(
            results=results,
            wall_time=timer.elapsed or 0.0,
            metrics=self.metrics.snapshot(),
            cache_stats=self.cache.stats(),
        )

    def execute(self, job: FactorizationJob) -> JobResult:
        """Run one job synchronously on the calling thread."""
        self._assign_id(job)
        self.metrics.inc("jobs_submitted")
        return self._run_job(job)

    # ------------------------------------------------------------------
    # health / readiness
    # ------------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """Live health document: breaker states, queue depth, counters,
        cache effectiveness, and worker-pool liveness.

        ``status`` is ``ok`` / ``degraded`` (some paths short-circuited)
        / ``failing`` (every known path's breaker open).  ``cache`` is
        the result cache's :meth:`~repro.service.cache.ResultCache.stats`
        snapshot (hit rate included) and ``pool`` reports how many of
        the engine's workers are currently executing a job — the fields
        the serving tier's ``/healthz`` aggregates per worker process.
        """
        from repro.rectangles.memo import rect_search_snapshot

        with self._busy_lock:
            busy = self._busy
        doc = health_snapshot(
            self.metrics,
            breakers=self.breakers.states(),
            queue_depth=len(self.queue),
            workers=self.workers,
            cache=self.cache.stats() if self.use_cache else None,
            pool={"size": self.workers, "busy": busy, "alive": True},
        )
        # Hot-path effectiveness: the process-wide v2 search pruning and
        # canonical-memo counters (PR 7), aggregated into /metrics.
        doc["rect_search"] = rect_search_snapshot()
        return doc

    def ready(self) -> bool:
        """Readiness probe: can this engine still produce answers?"""
        return bool(self.health()["ready"])

    # ------------------------------------------------------------------
    # the job lifecycle
    # ------------------------------------------------------------------

    def _assign_id(self, job: FactorizationJob) -> None:
        if not job.job_id:
            with self._id_lock:
                job.job_id = f"job-{self._next_id:04d}"
                self._next_id += 1

    def _retry_budget(self, job: FactorizationJob) -> int:
        return self.max_retries if job.max_retries is None else job.max_retries

    def _result_for(self, job: FactorizationJob, **kw) -> JobResult:
        return JobResult(
            job_id=job.job_id,
            circuit=job.circuit or (job.network.name if job.network else "?"),
            algorithm=job.algorithm,
            procs=job.procs,
            status=job.status,
            attempts=job.attempts,
            degraded=job.degraded,
            history=list(job.history),
            error=job.error,
            **kw,
        )

    def _run_job(self, job: FactorizationJob) -> JobResult:
        # Trace context: every span opened while this job runs — machine
        # phases, rectangle-search counters, retries — carries the job id
        # and lands on the job's track, so a batch trace separates jobs
        # end-to-end even across the worker pool.
        with self._busy_lock:
            self._busy += 1
        try:
            with _obs.context(
                track=f"job:{job.job_id}",
                job_id=job.job_id,
                circuit=job.circuit or (job.network.name if job.network else "?"),
                algorithm=job.algorithm,
            ):
                with _obs.span("job", cat="service"):
                    return self._run_job_traced(job)
        finally:
            with self._busy_lock:
                self._busy -= 1

    def _path_key(self, job: FactorizationJob) -> str:
        circuit = job.circuit or (job.network.name if job.network else "?")
        return f"{job.algorithm}:{circuit}"

    def _short_circuit(self, job: FactorizationJob) -> None:
        """Degrade *job* to the sequential fallback without attempting.

        Called when the job's path breaker is open: the combination has
        already failed ``failure_threshold`` times, so re-paying its
        timeout buys nothing.  The ping-pong sequential loop terminates
        on every circuit the suite contains.
        """
        for k, v in (
            ("deadline", None), ("node_budget", None),
            ("algorithm", "sequential"), ("searcher", "pingpong"),
            ("procs", 1),
        ):
            setattr(job, k, v)
        job.degraded = True
        self.metrics.inc("breaker_short_circuits")

    def _run_job_traced(self, job: FactorizationJob) -> JobResult:
        start = time.perf_counter()
        if (
            job.allow_degrade
            and job.algorithm != "sequential"
            and not self.breakers.get(self._path_key(job)).allow()
        ):
            self._short_circuit(job)
        if job.allow_degrade:
            try:
                memo = self._degrade_memo.get(self._job_key(job))
            except Exception:  # unresolvable circuit: let the attempt fail it
                memo = None
            if memo is not None:
                for k, v in memo.items():
                    setattr(job, k, v)
                job.degraded = True
                self.metrics.inc("degrade_memo_hits")
        retries = self._retry_budget(job)
        while True:
            job.attempts += 1
            self.metrics.inc("jobs_attempts")
            job.transition(JobStatus.RUNNING)
            breaker = self.breakers.get(self._path_key(job))
            try:
                payload, cache_hit = self._attempt(job)
            except Exception as exc:  # noqa: BLE001 - lifecycle boundary
                was_open = breaker.state == BreakerState.OPEN
                breaker.record_failure()
                if not was_open and breaker.state == BreakerState.OPEN:
                    self.metrics.inc("breaker_opened")
                    from repro.obs.flight import auto_dump, flight_recorder

                    flight_recorder().record(
                        "breaker", "breaker-open",
                        path=self._path_key(job),
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    auto_dump("breaker-open")
                job.error = f"{type(exc).__name__}: {exc}"
                job.transition(JobStatus.FAILED)
                self.metrics.inc("jobs_failed_attempts")
                if isinstance(exc, JobTimeout):
                    self.metrics.inc("jobs_timeouts")
                if isinstance(exc, BudgetExceeded):
                    self.metrics.inc("jobs_budget_exceeded")
                if job.attempts > retries:
                    self.metrics.inc("jobs_failed")
                    return self._result_for(
                        job,
                        elapsed=time.perf_counter() - start,
                        exception=exc,
                    )
                job.transition(JobStatus.RETRYING)
                self.metrics.inc("jobs_retries")
                self._maybe_degrade(job, exc)
                delay = self.backoff * self.backoff_factor ** (job.attempts - 1)
                if delay > 0:
                    time.sleep(delay)
                continue
            breaker.record_success()
            job.error = None
            job.transition(JobStatus.DONE)
            self.metrics.inc("jobs_completed")
            if job.degraded:
                self.metrics.inc("jobs_degraded")
            elapsed = time.perf_counter() - start
            self.metrics.histogram("job_seconds").observe(elapsed)
            return self._result_for(
                job,
                cache_hit=cache_hit,
                elapsed=elapsed,
                initial_lc=getattr(payload, "initial_lc", None),
                final_lc=getattr(payload, "final_lc", None),
                payload=payload,
            )

    def _maybe_degrade(self, job: FactorizationJob, exc: Exception) -> None:
        """Swap in the cheap fallback after a budget/deadline failure.

        The fallback drops the deadline and node budget: graceful
        degradation promises *an* answer, and the ping-pong heuristic
        terminates on every circuit the suite contains.
        """
        if not job.allow_degrade or job.degraded:
            return
        if not isinstance(exc, (JobTimeout, BudgetExceeded)):
            return
        requested_key = self._job_key(job)
        fallback: Dict[str, Any] = {"deadline": None, "node_budget": None}
        if job.algorithm == "replicated":
            # The replicated algorithm *is* the exhaustive search; its
            # fallback is the sequential SIS loop (paper: the DNF rows).
            fallback.update(algorithm="sequential", searcher="pingpong", procs=1)
        elif job.searcher == "exhaustive":
            fallback.update(searcher="pingpong")
        else:
            return
        for k, v in fallback.items():
            setattr(job, k, v)
        job.degraded = True
        self._degrade_memo[requested_key] = fallback

    # ------------------------------------------------------------------
    # one attempt
    # ------------------------------------------------------------------

    def _job_key(self, job: FactorizationJob) -> str:
        return canonical_job_key(
            job.resolve_network(),
            job.algorithm,
            job.procs,
            params=job.params,
            searcher=job.searcher,
            node_budget=job.node_budget,
        )

    def _attempt(self, job: FactorizationJob):
        """Run one attempt; returns (payload, cache_hit)."""
        network = job.resolve_network()
        key = self._job_key(job) if self.use_cache else None
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                # Shallow copy: callers may annotate the payload (e.g.
                # set sequential_time) without touching the cached one.
                return copy.copy(cached), True
        deadline = job.deadline if job.deadline is not None else self.default_deadline

        def compute():
            return self._dispatch(job, network)

        payload = (
            _call_with_deadline(compute, deadline, metrics=self.metrics)
            if deadline is not None
            else compute()
        )
        if key is not None:
            self.cache.put(key, payload)
        return payload, False

    def _dispatch(self, job: FactorizationJob, network: BooleanNetwork):
        params = dict(job.params)
        if job.algorithm == "sequential":
            work = network.copy()
            budget = (
                SearchBudget(job.node_budget)
                if job.node_budget is not None and job.searcher == "exhaustive"
                else None
            )
            result = kernel_extract(
                work, searcher=job.searcher, budget=budget,
                max_seeds=params.pop("max_seeds", 64), **params,
            )
            return SequentialRun(result=result, network=work)
        if job.algorithm == "baseline":
            from repro.parallel.common import sequential_baseline

            return sequential_baseline(
                network, searcher=job.searcher,
                max_seeds=params.pop("max_seeds", 64),
            )
        if job.algorithm == "replicated":
            from repro.parallel.replicated import replicated_kernel_extract

            if job.node_budget is not None:
                params.setdefault("search_budget", job.node_budget)
            return replicated_kernel_extract(network, job.procs, **params)
        if job.algorithm == "independent":
            from repro.parallel.independent import independent_kernel_extract

            return independent_kernel_extract(network, job.procs, **params)
        if job.algorithm == "lshaped":
            from repro.parallel.lshaped import lshaped_kernel_extract

            return lshaped_kernel_extract(network, job.procs, **params)
        raise ValueError(f"unknown algorithm {job.algorithm!r}")


def _call_with_deadline(
    fn: Callable[[], Any], deadline: float, metrics: Optional[MetricsRegistry] = None
) -> Any:
    """Run *fn* in a helper thread; :class:`JobTimeout` past *deadline*.

    Python threads cannot be force-killed, but they can be asked to stop:
    the helper runs under a :func:`~repro.machine.cancel.cancel_scope`,
    and on timeout the token is cancelled so the extraction loop unwinds
    with :class:`~repro.machine.cancel.JobCancelled` at its next step
    boundary instead of surviving as a leaked daemon thread running the
    computation to completion.  The caller's retry proceeds immediately
    either way.
    """
    box: Dict[str, Any] = {}
    done = threading.Event()
    token = CancelToken()

    def target() -> None:
        try:
            with cancel_scope(token):
                box["value"] = fn()
        except JobCancelled:
            # The deadline already fired and JobTimeout was raised to the
            # caller; this thread just confirms it unwound promptly.
            if metrics is not None:
                metrics.inc("jobs_cancelled")
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc
        finally:
            done.set()

    thread = threading.Thread(target=target, daemon=True, name="job-attempt")
    thread.start()
    if not done.wait(deadline):
        token.cancel()
        raise JobTimeout(f"attempt exceeded deadline of {deadline}s")
    if "error" in box:
        raise box["error"]
    return box["value"]


# ----------------------------------------------------------------------
# process-wide default engine (CLI --cache, harness table runs)
# ----------------------------------------------------------------------

_DEFAULT_ENGINE: Optional[FactorizationEngine] = None
_DEFAULT_LOCK = threading.Lock()


def get_default_engine(create: bool = True) -> Optional[FactorizationEngine]:
    """The shared process-wide engine (CLI and harness use one cache).

    With ``create=False`` returns None when no engine exists yet — used
    by reporting hooks that must not fabricate empty metrics.
    """
    global _DEFAULT_ENGINE
    with _DEFAULT_LOCK:
        if _DEFAULT_ENGINE is None and create:
            _DEFAULT_ENGINE = FactorizationEngine()
        return _DEFAULT_ENGINE


def reset_default_engine() -> None:
    """Drop the shared engine (tests; also frees its cache)."""
    global _DEFAULT_ENGINE
    with _DEFAULT_LOCK:
        _DEFAULT_ENGINE = None
