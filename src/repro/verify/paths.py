"""Registry of the factorization paths the fuzzer drives differentially.

Every entry takes a :class:`BooleanNetwork` and returns a *new* network
(the input is never mutated).  The rectangle core ("bit" vs "set") is
orthogonal: sequential paths thread an explicit ``core=`` argument, the
parallel algorithms resolve :func:`repro.rectangles.bitview.default_core`
internally, so :func:`rect_core` pins the process default for the
duration of one run — both mechanisms see the same choice.

Paths marked ``deterministic`` promise a reproducible result network for
a fixed input *regardless of core*: the bit core is byte-identical to
the sparse core by construction, so differing final literal counts
between cores is itself a failure the fuzzer reports.  The threaded
L-shaped path races real threads and only promises functional
equivalence.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.network.boolean_network import BooleanNetwork
from repro.rectangles.bitview import CORES, ENV_VAR, resolve_core
from repro.rectangles.memo import RectMemo, scoped_default_memo


@contextlib.contextmanager
def rect_core(core: Optional[str]):
    """Pin the process-wide rectangle-core default (``REPRO_RECT_CORE``)."""
    core = resolve_core(core)
    prev = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = core
    try:
        yield core
    finally:
        if prev is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = prev


@dataclass(frozen=True)
class FactorPath:
    """One named way of factoring a network end to end.

    Paths with ``nprocs > 0`` run on the simulated machine and accept a
    fault plan/injector (:mod:`repro.faults`); the fuzzer's ``--faults``
    mode re-executes exactly those under random crash+drop schedules.
    """

    name: str
    deterministic: bool
    _run: Callable[..., BooleanNetwork]
    nprocs: int = 0  # simulated processors; 0 = sequential path

    @property
    def supports_faults(self) -> bool:
        return self.nprocs > 0

    def run(
        self,
        network: BooleanNetwork,
        core: Optional[str] = None,
        faults=None,
    ) -> BooleanNetwork:
        """Factor a copy of *network* under *core*; return the result.

        Each run gets its own empty rectangle memo, so a run never
        replays searches another path or core made on the same network.
        """
        with rect_core(core) as resolved, scoped_default_memo(RectMemo()):
            if faults is None:
                return self._run(network, resolved)
            if not self.supports_faults:
                raise ValueError(
                    f"path {self.name!r} does not run on the simulated "
                    f"machine and cannot take a fault plan"
                )
            return self._run(network, resolved, faults)


def _seq(searcher: str):
    def run(network: BooleanNetwork, core: str) -> BooleanNetwork:
        from repro.rectangles.cover import kernel_extract

        work = network.copy()
        kernel_extract(work, searcher=searcher, core=core)
        return work

    return run


def _replicated(network: BooleanNetwork, core: str, faults=None) -> BooleanNetwork:
    from repro.parallel.replicated import replicated_kernel_extract

    return replicated_kernel_extract(network, nprocs=3, faults=faults).network


def _independent(network: BooleanNetwork, core: str, faults=None) -> BooleanNetwork:
    from repro.parallel.independent import independent_kernel_extract

    return independent_kernel_extract(network, nprocs=2, faults=faults).network


def _lshaped(network: BooleanNetwork, core: str, faults=None) -> BooleanNetwork:
    from repro.parallel.lshaped import lshaped_kernel_extract

    return lshaped_kernel_extract(network, nprocs=2, faults=faults).network


def _lshaped_threaded(network: BooleanNetwork, core: str) -> BooleanNetwork:
    from repro.parallel.lshaped_threaded import lshaped_kernel_extract_threaded

    return lshaped_kernel_extract_threaded(network, nprocs=2)


_PATHS: List[FactorPath] = [
    FactorPath("seq-exhaustive", True, _seq("exhaustive")),
    FactorPath("seq-pingpong", True, _seq("pingpong")),
    FactorPath("replicated", True, _replicated, nprocs=3),
    FactorPath("independent", True, _independent, nprocs=2),
    FactorPath("lshaped", True, _lshaped, nprocs=2),
    FactorPath("lshaped-threaded", False, _lshaped_threaded),
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


def all_cores() -> List[str]:
    """The rectangle cores the fuzzer crosses every path with."""
    return list(CORES)
