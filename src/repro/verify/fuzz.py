"""The differential fuzz driver.

One fuzz *run* generates a seeded random network and pushes it through
every registered factorization path, holding each result against four
oracles:

1. **Structure** — the result network still validates (acyclic, closed
   signal references) and preserves the interface: same primary inputs,
   all original primary outputs still defined.
2. **Function** — exact equivalence by exhaustive truth-table sweep
   (every generated network stays within the 8-input cap; networks
   loaded from elsewhere fall back to the Monte-Carlo check).
3. **Literal-count bounds** — factorization must never *increase* the
   SOP literal count, and must not erase a non-trivial network.
4. **Reference agreement** — production has one rectangle-search core,
   and every campaign runs with audits on (:mod:`repro.verify.audit`),
   so each search a path makes is rerun on the sparse-set reference of
   :mod:`repro.verify.reference` and must match its result, meter
   charges and budget spend.  A disagreement raises
   :class:`~repro.verify.audit.InvariantViolation` inside the path and
   is reported as an ``exception`` finding naming the search.

With ``faults=True`` every machine-backed path is additionally re-run
under a seeded random crash+drop schedule
(:meth:`repro.faults.FaultPlan.random_single`), adding two oracles:
every injected fault must carry a paired recovery record, and the
post-recovery literal count must stay within 5% of the fault-free
result for the same path.

Failures are captured as :class:`FuzzFailure` records carrying the
``.eqn`` text of the offending network and everything needed to replay:
family, seed, path — plus the fault plan and its seed for chaos
findings.  With ``shrink=True`` each failure is first minimized
(:mod:`repro.verify.shrink`) and written as a corpus entry
(:mod:`repro.verify.corpus`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs as _obs
from repro.network.boolean_network import BooleanNetwork
from repro.network.eqn import write_eqn
from repro.network.simulate import (
    exhaustive_equivalence_check,
    random_equivalence_check,
)
from repro.verify import audit
from repro.verify.generator import MAX_INPUTS, family_for_run, random_network
from repro.verify.paths import FactorPath, all_paths, get_path

#: (kind, detail) — ``None`` means the check passed.
CheckOutcome = Optional[Tuple[str, str]]


def check_path(
    network: BooleanNetwork,
    path: FactorPath,
    vectors: int = 256,
    faults=None,
    fault_seed: int = 0,
) -> Tuple[CheckOutcome, Optional[int]]:
    """Run one path over *network* and apply the per-path oracles.

    Returns ``(failure, final_literal_count)``; the count is ``None``
    when the run itself failed, and the chaos sweep uses it as its
    fault-free baseline.  Audits stay as the caller set them;
    :func:`run_fuzz` and corpus replay turn them on.

    With *faults* (a :class:`~repro.faults.plan.FaultPlan` or its spec
    string) the path runs under a fresh injector seeded with
    *fault_seed*, and a fifth oracle applies: every injected crash /
    drop / corrupt / dup fault must have a paired ``recovery:*`` record
    once the run completes ("fault-recovery" failures).
    """
    injector = None
    if faults is not None and path.supports_faults:
        from repro.faults import FaultInjector, FaultPlan

        plan = faults if isinstance(faults, FaultPlan) else FaultPlan.parse(str(faults))
        if not plan.is_empty():
            injector = FaultInjector(plan, seed=fault_seed)
    initial = network.literal_count()
    try:
        result = path.run(network, faults=injector)
        result.validate()
    except Exception as exc:  # noqa: BLE001 - any escape is a finding
        return ("exception", f"{type(exc).__name__}: {exc}"), None
    if injector is not None:
        # Slow windows that outlive the run have nothing to absorb them;
        # only discrete faults are held to the pairing contract.
        bad = [r for r in injector.unrecovered() if r.kind != "slow"]
        if bad:
            what = "; ".join(f"{r.kind}@op{r.op} pid={r.pid}" for r in bad)
            return ("fault-recovery", f"unrecovered fault(s): {what}"), None
    if list(result.inputs) != list(network.inputs):
        return ("interface", "primary inputs changed"), None
    missing = [o for o in network.outputs
               if o not in result.nodes and not result.is_input(o)]
    if missing:
        return ("interface", f"primary outputs lost: {missing}"), None
    final = result.literal_count()
    if final > initial:
        return ("lc-bound", f"literal count grew {initial} -> {final}"), final
    if initial > 0 and final == 0:
        return ("lc-bound", f"non-trivial network erased ({initial} -> 0)"), final
    try:
        if len(network.inputs) <= MAX_INPUTS:
            same = exhaustive_equivalence_check(
                network, result, outputs=network.outputs
            )
        else:
            same = random_equivalence_check(
                network, result, vectors=vectors, outputs=network.outputs
            )
    except Exception as exc:  # noqa: BLE001
        return ("exception", f"oracle raised {type(exc).__name__}: {exc}"), final
    if not same:
        return ("equivalence", f"primary outputs differ (LC {initial} -> {final})"), final
    return None, final


@dataclass
class FuzzFailure:
    """One oracle violation, replayable from the recorded coordinates."""

    run: int
    seed: int
    family: str
    path: str
    kind: str
    detail: str
    eqn: str
    shrunk: bool = False
    repro_file: Optional[str] = None
    fault_plan: Optional[str] = None    # spec string; None = fault-free check
    fault_seed: int = 0

    def describe(self) -> str:
        chaos = (f" under faults [{self.fault_plan} seed={self.fault_seed}]"
                 if self.fault_plan else "")
        tail = f" [repro: {self.repro_file}]" if self.repro_file else ""
        return (
            f"run {self.run} (family={self.family}, seed={self.seed}) "
            f"{self.path}{chaos}: {self.kind} — {self.detail}{tail}"
        )


@dataclass
class FuzzConfig:
    """Knobs of one fuzz campaign (all deterministic in ``seed``)."""

    runs: int = 25
    seed: int = 0
    paths: Optional[Sequence[str]] = None   # None → every registered path
    family: Optional[str] = None            # None → rotate all families
    shrink: bool = False
    repro_dir: Optional[str] = None         # where shrunk repros land
    vectors: int = 256
    faults: bool = False                    # chaos mode: re-run parallel
    fault_seed: int = 0                     # paths under random fault plans
    progress: Optional[Callable[[str], None]] = None


@dataclass
class FuzzReport:
    """Outcome of a fuzz campaign."""

    runs: int = 0
    checks: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [
            f"fuzz: {self.runs} runs, {self.checks} path checks, "
            f"{len(self.failures)} failure(s)"
        ]
        for f in self.failures:
            lines.append("  FAIL " + f.describe())
        return "\n".join(lines)


def _shrink_failure(
    network: BooleanNetwork,
    path: FactorPath,
    kind: str,
    vectors: int,
    faults=None,
    fault_seed: int = 0,
) -> BooleanNetwork:
    from repro.verify.shrink import shrink_network

    def still_fails(candidate: BooleanNetwork) -> bool:
        outcome, _ = check_path(candidate, path, vectors=vectors,
                                faults=faults, fault_seed=fault_seed)
        return outcome is not None and outcome[0] == kind

    return shrink_network(network, still_fails)


def run_fuzz(config: FuzzConfig) -> FuzzReport:
    """Execute a fuzz campaign under audits; never raises on findings,
    only reports."""
    paths = [get_path(n) for n in config.paths] if config.paths else all_paths()
    report = FuzzReport()
    say = config.progress or (lambda _msg: None)

    with audit.audits_on():
        for run in range(config.runs):
            seed = config.seed + run
            family = config.family or family_for_run(run)
            net = random_network(seed, family=family)
            say(f"run {run}: family={family} seed={seed} "
                f"({len(net.inputs)} in / {len(net.nodes)} nodes / "
                f"LC {net.literal_count()})")
            finals: Dict[str, int] = {}
            for path in paths:
                # Trace context: a traced campaign tags every span with
                # (run, seed, family, path) so a failing check ships
                # with its exact trace slice.
                with _obs.context(
                    track=f"fuzz:{run}", run=run, seed=seed,
                    family=family, path=path.name,
                ), _obs.span("fuzz-check", cat="verify"):
                    outcome, final = check_path(
                        net, path, vectors=config.vectors
                    )
                report.checks += 1
                if final is not None:
                    finals[path.name] = final
                if outcome is None:
                    continue
                kind, detail = outcome
                failure = FuzzFailure(
                    run=run, seed=seed, family=family, path=path.name,
                    kind=kind, detail=detail, eqn=write_eqn(net),
                )
                _finalize_failure(failure, net, path, config)
                report.failures.append(failure)
                say("  " + failure.describe())
            if config.faults:
                _chaos_sweep(report, config, run, seed, family, net,
                             paths, finals, say)
            report.runs += 1
    return report


def _chaos_sweep(
    report: FuzzReport,
    config: FuzzConfig,
    run: int,
    seed: int,
    family: str,
    net: BooleanNetwork,
    paths: Sequence[FactorPath],
    finals: Dict[str, int],
    say: Callable[[str], None],
) -> None:
    """Re-run the machine-backed paths under a random single-crash plan.

    One :meth:`FaultPlan.random_single` schedule per (run, path) —
    deterministic in ``config.fault_seed + run`` — and one extra oracle
    on top of the usual ones: recovery must leave the final literal
    count within 5% of the fault-free result for the same path (crash
    recovery re-deals work, so exact equality is not promised, but
    near-misses bound how much quality a failure may cost).
    """
    from repro.faults import FaultPlan

    for path in paths:
        if not path.supports_faults:
            continue
        fseed = config.fault_seed + run
        plan = FaultPlan.random_single(fseed, path.nprocs)
        spec = plan.render()
        with _obs.context(
            track=f"fuzz:{run}", run=run, seed=seed, family=family,
            path=path.name, faults=spec,
        ), _obs.span("fuzz-chaos-check", cat="verify"):
            outcome, final = check_path(
                net, path, vectors=config.vectors,
                faults=plan, fault_seed=fseed,
            )
        report.checks += 1
        if outcome is None and final is not None:
            fault_free = finals.get(path.name)
            # 5% relative, with an absolute floor of one small
            # rectangle: on tiny fuzz networks a single diverged greedy
            # choice costs a handful of literals, which is recovery
            # working as designed; the relative bound is what matters on
            # real circuits.
            if fault_free is not None and fault_free > 0 \
                    and final - fault_free > max(fault_free * 0.05, 5):
                outcome = ("fault-quality",
                           f"post-recovery LC {final} exceeds "
                           f"fault-free {fault_free} by more than 5%")
        if outcome is None:
            continue
        kind, detail = outcome
        failure = FuzzFailure(
            run=run, seed=seed, family=family, path=path.name,
            kind=kind, detail=detail, eqn=write_eqn(net),
            fault_plan=spec, fault_seed=fseed,
        )
        _finalize_failure(failure, net, path, config)
        report.failures.append(failure)
        say("  " + failure.describe())


def _finalize_failure(
    failure: FuzzFailure,
    net: BooleanNetwork,
    path: FactorPath,
    config: FuzzConfig,
) -> None:
    """Optionally shrink the failing network and persist a repro entry."""
    if not config.shrink:
        return
    try:
        small = _shrink_failure(net, path, failure.kind, config.vectors,
                                faults=failure.fault_plan,
                                fault_seed=failure.fault_seed)
    except Exception:  # noqa: BLE001 - shrinking must never mask the find
        return
    failure.eqn = write_eqn(small)
    failure.shrunk = True
    if config.repro_dir:
        from repro.verify.corpus import save_repro

        failure.repro_file = save_repro(config.repro_dir, failure)
