"""Pluggable trial-dispatch backends.

A backend's only job is: given a batch of :class:`~repro.experiments.trial.
TrialSpec`s, execute each one exactly once (logically) and hand back the
:class:`~repro.experiments.trial.TrialResult`s in **trial-index order**.
Everything that makes sweep reports deterministic lives outside the
backend — per-trial seeds are a pure function of the trial's grid
coordinates (:meth:`~repro.rng.RngRegistry.spawn`), and aggregation sorts
by index —
so any backend that honours the contract produces byte-identical reports.
``SerialBackend`` really is the degenerate case of the design, exactly as
ROADMAP's remote fan-out item predicted.

The contract, enforced here by :class:`ResultAssembler`:

* **at-most-once application** — results are keyed by trial index; a
  duplicate delivery (e.g. a socket worker that died *after* sending a
  result whose trial was then requeued and re-run) is dropped, so retries
  and completion order never change the merged output;
* **streaming** — ``on_result`` fires exactly once per distinct trial, as
  results arrive, which is what lets the sweep journal flush durable
  records and partial reports render mid-sweep;
* **interruptible** — ``should_stop`` is polled between applications; a
  backend answers a ``True`` with :class:`~repro.errors.SweepInterrupted`
  carrying everything applied so far.

A backend may also hold *pool state* between :meth:`DispatchBackend.run`
calls (the socket pool's warm workers): :meth:`DispatchBackend.close`
releases it, backends are context managers, and the base implementations
are no-ops so stateless backends need not care.

Backends: :class:`SerialBackend` (in-process loop), :class:`
MultiprocessBackend` (a local ``multiprocessing`` pool streaming via
``imap`` with batch-derived chunk sizes), and
:class:`~repro.dispatch.socket_pool.SocketBackend` (stdlib socket
coordinator + ``python -m repro worker`` processes, possibly on other
machines, shipping batched spec frames over a pipelined window).
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, Iterable, Sequence

from ..errors import ConfigurationError, DispatchError, SweepInterrupted
from ..experiments.trial import TrialResult, TrialSpec
from ..experiments.workloads import run_trial

OnResult = Callable[[TrialResult], None]
ShouldStop = Callable[[], bool]

MIN_AUTO_CHUNK = 4
"""Floor for derived chunksizes: per-dispatch IPC overhead is roughly
constant, so chunks below this spend a visible fraction of a small
grid's wall time on dispatch instead of trials."""


def auto_chunksize(batch_size: int, workers: int) -> int:
    """Chunksize for ``batch_size`` specs over ``workers`` processes.

    Large batches keep the classic ``batch // (workers * 4)`` — four
    waves per worker, balanced when trial wall times vary.  Small
    batches are where that heuristic collapsed to 1–2-trial dispatches
    whose IPC overhead dominated (the 16-trial sweep points of
    ``BENCH_sweep``): the :data:`MIN_AUTO_CHUNK` floor batches them up,
    capped at an even ``ceil(batch / workers)`` split so every worker
    still gets work.
    """
    per_worker = -(-batch_size // workers)  # ceil: an even split
    return max(1, min(
        max(batch_size // (workers * 4), MIN_AUTO_CHUNK), per_worker
    ))


class ResultAssembler:
    """At-most-once, order-oblivious collection of trial results.

    Parameters
    ----------
    indices:
        The trial indices the batch is expected to produce.
    on_result:
        Callback fired exactly once per *first* application of each index
        (never for duplicates or unexpected indices).
    """

    def __init__(
        self,
        indices: Iterable[int],
        on_result: OnResult | None = None,
    ) -> None:
        self._expected = set(indices)
        if len(self._expected) == 0:
            raise ConfigurationError("cannot assemble an empty batch")
        self._results: dict[int, TrialResult] = {}
        self._on_result = on_result

    def apply(self, result: TrialResult) -> bool:
        """Apply one result; ``False`` if it was a duplicate/unexpected.

        The boolean is the at-most-once guarantee: whatever order results
        arrive in, and however many times a trial is redelivered, each
        index is recorded (and ``on_result`` fired) exactly once.
        """
        index = result.index
        if index not in self._expected or index in self._results:
            return False
        self._results[index] = result
        if self._on_result is not None:
            self._on_result(result)
        return True

    @property
    def done(self) -> bool:
        """True once every expected index has been applied."""
        return len(self._results) == len(self._expected)

    @property
    def applied_count(self) -> int:
        """Number of distinct indices applied so far."""
        return len(self._results)

    def missing(self) -> list[int]:
        """Expected indices not yet applied, ascending."""
        return sorted(self._expected - self._results.keys())

    def ordered(self) -> list[TrialResult]:
        """Applied results in trial-index order (partial batches allowed)."""
        return [self._results[i] for i in sorted(self._results)]


class DispatchBackend:
    """Base class for trial-dispatch backends.

    Subclasses implement :meth:`_execute`, feeding every produced result
    through the assembler; :meth:`run` owns the shared contract (index
    ordering, duplicate suppression, completeness check, interruption).
    """

    name = "abstract"

    def run(
        self,
        specs: Sequence[TrialSpec],
        *,
        on_result: OnResult | None = None,
        should_stop: ShouldStop | None = None,
    ) -> list[TrialResult]:
        """Execute ``specs``; return their results in trial-index order.

        ``on_result`` fires once per distinct completed trial as results
        arrive.  ``should_stop`` is polled after each application; a
        ``True`` raises :class:`~repro.errors.SweepInterrupted` with the
        results applied so far.
        """
        assembler = ResultAssembler(
            (s.index for s in specs), on_result=on_result
        )
        self._execute(list(specs), assembler, should_stop)
        if not assembler.done:
            raise DispatchError(
                f"{self.name} backend finished with trials missing: "
                f"{assembler.missing()[:10]}"
            )
        return assembler.ordered()

    def _execute(
        self,
        specs: list[TrialSpec],
        assembler: ResultAssembler,
        should_stop: ShouldStop | None,
    ) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release any pool state held between runs (no-op by default)."""

    def __enter__(self) -> "DispatchBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def _check_stop(
        assembler: ResultAssembler, should_stop: ShouldStop | None
    ) -> None:
        if should_stop is not None and should_stop():
            raise SweepInterrupted(
                f"stopped after {assembler.applied_count} trials",
                completed=assembler.ordered(),
            )


class SerialBackend(DispatchBackend):
    """Run every trial in-process, in submission order.

    This is both the reference implementation the others must match and
    the fallback for environments without working ``multiprocessing``.
    """

    name = "serial"

    def _execute(self, specs, assembler, should_stop):
        for spec in specs:
            assembler.apply(run_trial(spec))
            self._check_stop(assembler, should_stop)


class MultiprocessBackend(DispatchBackend):
    """Fan trials over a local ``multiprocessing`` pool of ``workers``
    processes (>= 2; use :class:`SerialBackend` for one).

    ``imap`` streams results back in submission order, so journalling and
    partial reports work mid-batch.  Each worker dispatch carries
    :func:`auto_chunksize` trials, derived from the *actual* batch handed
    to :meth:`run` — the whole sweep's spec stream, never a single
    point's trial count.
    """

    name = "procs"

    def __init__(self, workers: int) -> None:
        if workers < 2:
            raise ConfigurationError(
                "MultiprocessBackend needs workers >= 2; "
                "use SerialBackend for in-process runs"
            )
        self.workers = workers

    def effective_chunksize(self, batch_size: int) -> int:
        """The chunksize actually handed to ``imap`` for a batch."""
        return auto_chunksize(batch_size, self.workers)

    def _execute(self, specs, assembler, should_stop):
        ctx = multiprocessing.get_context()
        with ctx.Pool(processes=self.workers) as pool:
            # imap yields in submission order no matter which worker ran
            # what, so streaming application is oblivious to scheduling.
            for result in pool.imap(
                run_trial, specs, chunksize=self.effective_chunksize(len(specs))
            ):
                assembler.apply(result)
                self._check_stop(assembler, should_stop)


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")


def default_backend(workers: int) -> DispatchBackend:
    """The backend a plain ``workers=N`` request means: serial at 1."""
    _check_workers(workers)
    if workers == 1:
        return SerialBackend()
    return MultiprocessBackend(workers)


BACKEND_NAMES = ("serial", "procs", "socket")
"""Backend names ``python -m repro sweep --backend`` accepts."""
