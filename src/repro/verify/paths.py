"""Registry of the factorization paths the fuzzer drives differentially.

Every entry takes a :class:`BooleanNetwork` and returns a *new* network
(the input is never mutated).  Whether a path's rectangle searches agree
with the sparse-set reference is checked per search by the audits
(:func:`repro.verify.audit.audit_search`), which the fuzzer always runs
with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.network.boolean_network import BooleanNetwork
from repro.rectangles.memo import RectMemo, scoped_default_memo


@dataclass(frozen=True)
class FactorPath:
    """One named way of factoring a network end to end.

    Paths with ``nprocs > 0`` run on the simulated machine and accept a
    fault plan/injector (:mod:`repro.faults`); the fuzzer's ``--faults``
    mode re-executes exactly those under random crash+drop schedules.
    """

    name: str
    _run: Callable[..., BooleanNetwork]
    nprocs: int = 0  # simulated processors; 0 = sequential path

    @property
    def supports_faults(self) -> bool:
        return self.nprocs > 0

    def run(self, network: BooleanNetwork, faults=None) -> BooleanNetwork:
        """Factor a copy of *network*; return the result.

        Each run gets its own empty rectangle memo, so a run never
        replays searches another path made on the same network.
        """
        with scoped_default_memo(RectMemo()):
            if faults is None:
                return self._run(network)
            if not self.supports_faults:
                raise ValueError(
                    f"path {self.name!r} does not run on the simulated "
                    f"machine and cannot take a fault plan"
                )
            return self._run(network, faults)


def _seq(searcher: str):
    def run(network: BooleanNetwork) -> BooleanNetwork:
        from repro.rectangles.cover import kernel_extract

        work = network.copy()
        kernel_extract(work, searcher=searcher)
        return work

    return run


def _replicated(network: BooleanNetwork, faults=None) -> BooleanNetwork:
    from repro.parallel.replicated import replicated_kernel_extract

    return replicated_kernel_extract(network, nprocs=3, faults=faults).network


def _independent(network: BooleanNetwork, faults=None) -> BooleanNetwork:
    from repro.parallel.independent import independent_kernel_extract

    return independent_kernel_extract(network, nprocs=2, faults=faults).network


def _lshaped(network: BooleanNetwork, faults=None) -> BooleanNetwork:
    from repro.parallel.lshaped import lshaped_kernel_extract

    return lshaped_kernel_extract(network, nprocs=2, faults=faults).network


def _lshaped_threaded(network: BooleanNetwork) -> BooleanNetwork:
    from repro.parallel.lshaped_threaded import lshaped_kernel_extract_threaded

    return lshaped_kernel_extract_threaded(network, nprocs=2)


_PATHS: List[FactorPath] = [
    FactorPath("seq-exhaustive", _seq("exhaustive")),
    FactorPath("seq-pingpong", _seq("pingpong")),
    FactorPath("replicated", _replicated, nprocs=3),
    FactorPath("independent", _independent, nprocs=2),
    FactorPath("lshaped", _lshaped, nprocs=2),
    FactorPath("lshaped-threaded", _lshaped_threaded),
]

_BY_NAME: Dict[str, FactorPath] = {p.name: p for p in _PATHS}


def all_paths() -> List[FactorPath]:
    """Every registered path, in registry order."""
    return list(_PATHS)


def get_path(name: str) -> FactorPath:
    """Look up one path by name (``ValueError`` with the valid list)."""
    got = _BY_NAME.get(name)
    if got is None:
        valid = ", ".join(sorted(_BY_NAME))
        raise ValueError(f"unknown factorization path {name!r}; expected one of: {valid}")
    return got
