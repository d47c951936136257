"""Job and result models for the batch factorization engine.

A :class:`FactorizationJob` describes one unit of serving work — factor
this circuit with this algorithm under these limits — and carries its own
lifecycle state machine::

    PENDING -> RUNNING -> DONE
                  |  \\
                  v   (attempts left)
               FAILED -> RETRYING -> RUNNING -> ...

Every transition is appended to ``job.history`` so a batch report can
show *how* a job finished (e.g. the FAILED → RETRYING → DONE path of a
job that blew its deadline and degraded to the ping-pong heuristic,
mirroring the paper's DNF rows).  :class:`JobQueue` is the thread-safe
priority queue the engine drains; lower ``priority`` runs first and ties
preserve submission order.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.network.boolean_network import BooleanNetwork

__all__ = ["JobStatus", "FactorizationJob", "JobResult", "JobQueue"]

#: Algorithms a job may request.  "baseline" is the metered sequential
#: SIS run the speedup tables divide by — caching it is a large win
#: because every table recomputes it per circuit.
ALGORITHMS = ("sequential", "baseline", "replicated", "independent", "lshaped")


class JobStatus(enum.Enum):
    PENDING = "PENDING"
    RUNNING = "RUNNING"
    DONE = "DONE"
    FAILED = "FAILED"
    RETRYING = "RETRYING"

    def __str__(self) -> str:
        return self.value


@dataclass
class FactorizationJob:
    """One factorization request plus its mutable lifecycle state.

    Exactly one of *circuit* (a name/path resolvable by
    :func:`repro.circuits.load_circuit`) or *network* must be provided.
    ``deadline`` is wall-clock seconds per attempt; ``node_budget`` caps
    the rectangle-search tree (the paper's DNF mechanism).  When either
    limit trips and ``allow_degrade`` is set, the retry falls back from
    exhaustive rectangle search to the ping-pong heuristic.
    """

    circuit: str = ""
    algorithm: str = "sequential"
    procs: int = 1
    searcher: str = "pingpong"
    scale: float = 1.0
    priority: int = 0
    deadline: Optional[float] = None
    node_budget: Optional[int] = None
    max_retries: Optional[int] = None      # None -> engine default
    allow_degrade: bool = True
    params: Dict[str, Any] = field(default_factory=dict)
    network: Optional[BooleanNetwork] = None

    # --- engine-managed state ---
    job_id: str = ""
    status: JobStatus = JobStatus.PENDING
    attempts: int = 0
    degraded: bool = False
    error: Optional[str] = None
    history: List[JobStatus] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; expected one of "
                f"{', '.join(ALGORITHMS)}"
            )
        if not self.history:
            self.history.append(self.status)

    def transition(self, status: JobStatus) -> None:
        self.status = status
        self.history.append(status)

    def resolve_network(self) -> BooleanNetwork:
        """The network to factor — the attached one or a loaded circuit."""
        if self.network is None:
            from repro.circuits import load_circuit

            self.network = load_circuit(self.circuit, scale=self.scale)
        return self.network

    def describe(self) -> str:
        name = self.circuit or (self.network.name if self.network else "?")
        procs = "" if self.algorithm in ("sequential", "baseline") else f"@{self.procs}p"
        return f"{name}/{self.algorithm}{procs}"


@dataclass
class JobResult:
    """The engine's answer for one job — everything a report needs.

    ``payload`` is the underlying algorithm result
    (:class:`~repro.parallel.common.ParallelRunResult`,
    :class:`~repro.rectangles.cover.KernelExtractionResult` or
    :class:`~repro.parallel.common.SequentialBaseline`); ``exception``
    holds the last raised error of a FAILED job so synchronous callers
    can re-raise it with the original type.
    """

    job_id: str
    circuit: str
    algorithm: str
    procs: int
    status: JobStatus
    attempts: int = 0
    degraded: bool = False
    cache_hit: bool = False
    elapsed: float = 0.0
    initial_lc: Optional[int] = None
    final_lc: Optional[int] = None
    error: Optional[str] = None
    history: List[JobStatus] = field(default_factory=list)
    payload: Any = None
    exception: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.status is JobStatus.DONE

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable summary (payload/exception omitted)."""
        return {
            "job_id": self.job_id,
            "circuit": self.circuit,
            "algorithm": self.algorithm,
            "procs": self.procs,
            "status": self.status.value,
            "attempts": self.attempts,
            "degraded": self.degraded,
            "cache_hit": self.cache_hit,
            "elapsed": self.elapsed,
            "initial_lc": self.initial_lc,
            "final_lc": self.final_lc,
            "error": self.error,
            "history": [s.value for s in self.history],
        }


class JobQueue:
    """Thread-safe priority queue (lower priority first, FIFO ties)."""

    def __init__(self):
        self._heap: List = []
        self._seq = itertools.count()
        self._cond = threading.Condition()

    def put(self, job: FactorizationJob) -> None:
        with self._cond:
            heapq.heappush(self._heap, (job.priority, next(self._seq), job))
            self._cond.notify()

    def get(self, timeout: Optional[float] = None) -> Optional[FactorizationJob]:
        """Pop the highest-priority job; None on timeout/empty-nonblocking."""
        with self._cond:
            if timeout is not None:
                self._cond.wait_for(lambda: self._heap, timeout=timeout)
            if not self._heap:
                return None
            return heapq.heappop(self._heap)[2]

    def drain(self) -> List[FactorizationJob]:
        """Pop everything, in priority order."""
        with self._cond:
            out = [heapq.heappop(self._heap)[2] for _ in range(len(self._heap))]
        return out

    def __len__(self) -> int:
        with self._cond:
            return len(self._heap)

    def empty(self) -> bool:
        return len(self) == 0
