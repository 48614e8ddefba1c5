"""Supervised process-pool execution.

:class:`SupervisedPool` is the package's one process pool: an ordered
``map`` over a :class:`~concurrent.futures.ProcessPoolExecutor` that
treats partial failure as the normal case.  A pool may serve many
``map`` calls — the render service of :mod:`repro.parallel.tilerender`
keeps one for a whole session, and sets :attr:`~SupervisedPool.policy`,
:attr:`~SupervisedPool.fault_plan` and :attr:`~SupervisedPool.report`
per call.  Per job it detects

* worker death (``BrokenProcessPool`` — e.g. an injected ``crash``
  fault calling ``os._exit``),
* raised exceptions (including :class:`InjectedFault`),
* per-attempt timeouts (hung workers are terminated and the pool
  respawned),
* corrupt payloads (:class:`CorruptResult` markers, or a caller
  ``validate`` hook rejecting a value),

and responds by respawning the pool as needed and retrying the failed
jobs under a :class:`RetryPolicy` with exponential backoff.  Jobs that
exhaust their retries are re-executed *in the parent process* via
``serial_fn`` — the bottom rung of the degradation ladder — so ``map``
always completes with results bit-identical to a plain serial loop.
Everything that failed, was retried, or fell back is recorded in the
attached :class:`DegradationReport` (no silent drops).
"""

from __future__ import annotations

import time
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence, TypeVar

from repro.resilience.faults import CorruptResult, FaultPlan, InjectedFault, run_with_faults
from repro.resilience.health import DegradationReport
from repro.resilience.retry import DEFAULT_POLICY, RetryPolicy

__all__ = ["SupervisedPool", "supervised_map"]

T = TypeVar("T")
R = TypeVar("R")

_UNSET = object()


def _supervised_init(counter, user_init, user_args) -> None:
    """Pool initializer: assign this worker a stable ordinal (for
    worker-targeted faults), then run the caller's initializer."""
    from repro.resilience import faults

    if counter is not None:
        with counter.get_lock():
            faults._WORKER_ORDINAL = int(counter.value)
            counter.value += 1
    if user_init is not None:
        user_init(*user_args)


class SupervisedPool:
    """A process pool that survives its workers.

    Parameters
    ----------
    max_workers:
        Pool width; ``<= 1`` runs everything serially in-process (no
        faults are injected on the serial path — it is the trusted
        bottom rung of the degradation ladder).
    policy:
        Retry policy governing attempts per job and backoff between
        retry rounds.
    fault_plan:
        Optional :class:`FaultPlan` shipped to workers (tests and
        benchmarks inject faults through this; production passes None).
    initializer / initargs:
        Per-worker setup, as for :class:`ProcessPoolExecutor` (re-run
        whenever the pool is respawned).  Workers spawn lazily, at the
        first pooled ``map``, and live until :meth:`close`.
    report:
        A :class:`DegradationReport` to accumulate into (a fresh one is
        created when omitted; read it back via :attr:`report`).
    sleep:
        Injectable backoff sleep.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        policy: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
        report: DegradationReport | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_workers is None:
            from repro.parallel.pool import default_workers

            max_workers = default_workers()
        if max_workers < 0:
            raise ValueError("max_workers must be >= 0")
        self.max_workers = int(max_workers)
        self.policy = policy or DEFAULT_POLICY
        self.fault_plan = fault_plan
        self.report = report if report is not None else DegradationReport()
        self._initializer = initializer
        self._initargs = initargs
        self._sleep = sleep
        self._executor: ProcessPoolExecutor | None = None

    # Pool lifecycle -------------------------------------------------------
    @property
    def serial(self) -> bool:
        return self.max_workers <= 1

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut the workers down, waiting for them (idempotent; a later
        ``map`` spawns a fresh set)."""
        self._shutdown()

    def worker_pids(self) -> tuple[int, ...]:
        """PIDs of the live workers (empty before the first pooled map)."""
        procs = getattr(self._executor, "_processes", None) or {}
        return tuple(sorted(procs))

    def _spawn(self) -> ProcessPoolExecutor:
        import multiprocessing

        counter = multiprocessing.Value("i", 0)
        self._executor = ProcessPoolExecutor(
            max_workers=self.max_workers,
            initializer=_supervised_init,
            initargs=(counter, self._initializer, self._initargs),
        )
        return self._executor

    def _shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def _kill(self) -> None:
        """Tear down a broken or hung pool without waiting on it."""
        if self._executor is None:
            return
        procs = getattr(self._executor, "_processes", None) or {}
        for proc in list(procs.values()):
            try:
                proc.terminate()
            except Exception:
                pass
        self._executor.shutdown(wait=False, cancel_futures=True)
        self._executor = None

    # Supervision ----------------------------------------------------------
    def _note_failure(
        self,
        kind: str,
        job: int,
        attempt: int,
        retry_next: list[tuple[int, int]],
        fallback: list[int],
        detail: str = "",
    ) -> None:
        """Record one failed attempt and route the job onward."""
        spec = self.fault_plan.fires(job, attempt) if self.fault_plan else None
        if spec is not None and "injected" not in kind:
            kind = f"injected-{spec.kind}"
        will_retry = attempt + 1 < self.policy.max_attempts
        self.report.record(
            kind,
            scope="job",
            action="retried" if will_retry else "serial-fallback",
            job=job,
            attempt=attempt,
            detail=detail,
        )
        if will_retry:
            retry_next.append((job, attempt + 1))
        else:
            fallback.append(job)

    def _submit(
        self, fn: Callable[[T], R], items: Sequence[T], pending: list[tuple[int, int]]
    ) -> list[tuple[int, int, Future]]:
        assert self._executor is not None
        return [
            (job, attempt, self._executor.submit(
                run_with_faults, fn, items[job], job, attempt, self.fault_plan
            ))
            for job, attempt in pending
        ]

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        *,
        serial_fn: Callable[[T], R] | None = None,
        validate: Callable[[R], bool] | None = None,
    ) -> list[R]:
        """Ordered, failure-absorbing map.

        Parameters
        ----------
        fn:
            Picklable per-item work function run in pool workers (may
            rely on state installed by the pool initializer).
        serial_fn:
            In-parent equivalent used for serial mode and last-resort
            fallback (defaults to ``fn``; pass one when ``fn`` depends
            on worker-local state).
        validate:
            Optional result predicate; a False verdict counts as a
            ``corrupt`` failure and triggers a retry.
        """
        serial_fn = serial_fn if serial_fn is not None else fn
        n = len(items)
        results: list[Any] = [_UNSET] * n
        if self.serial:
            for i, item in enumerate(items):
                results[i] = serial_fn(item)
            return results

        pending: list[tuple[int, int]] = [(i, 0) for i in range(n)]
        round_index = 0
        while pending:
            retry_next: list[tuple[int, int]] = []
            fallback: list[int] = []
            if self._executor is None:
                self._spawn()
            try:
                futures = self._submit(fn, items, pending)
            except BrokenProcessPool as exc:
                # a worker of a pool kept between maps died while idle
                self._kill()
                self.report.record(
                    "crash", scope="pool", action="respawned", detail=repr(exc),
                )
                self._spawn()
                futures = self._submit(fn, items, pending)
            broken = False
            for job, attempt, fut in futures:
                try:
                    if broken:
                        # pool already dead: collect what finished in
                        # time, fail the rest without further waiting
                        value = fut.result(timeout=0)
                    else:
                        value = fut.result(timeout=self.policy.attempt_timeout_s)
                except FutureTimeoutError:
                    if broken:
                        self._note_failure("crash", job, attempt, retry_next, fallback,
                                           detail="pool died mid-round")
                        continue
                    # hung worker: kill the whole pool, respawn next round
                    self._kill()
                    broken = True
                    self.report.record(
                        "timeout", scope="pool", action="respawned",
                        job=job, attempt=attempt,
                        detail=f"attempt exceeded {self.policy.attempt_timeout_s}s",
                    )
                    self._note_failure("timeout", job, attempt, retry_next, fallback)
                    continue
                except BrokenProcessPool as exc:
                    if not broken:
                        self._kill()
                        broken = True
                        self.report.record(
                            "crash", scope="pool", action="respawned",
                            job=job, attempt=attempt, detail=repr(exc),
                        )
                    self._note_failure("crash", job, attempt, retry_next, fallback,
                                       detail=repr(exc))
                    continue
                except CancelledError:
                    self._note_failure("crash", job, attempt, retry_next, fallback,
                                       detail="cancelled by pool death")
                    continue
                except InjectedFault as exc:
                    self._note_failure(f"injected-{exc.kind}", job, attempt,
                                       retry_next, fallback, detail=str(exc))
                    continue
                except Exception as exc:  # job raised in the worker
                    self._note_failure("error", job, attempt, retry_next, fallback,
                                       detail=repr(exc))
                    continue
                if isinstance(value, CorruptResult) or (
                    validate is not None and not validate(value)
                ):
                    self._note_failure("corrupt", job, attempt, retry_next, fallback)
                    continue
                results[job] = value

            # bottom rung: exhausted jobs run in-process, serially —
            # deterministic work gives bit-identical output
            for job in fallback:
                results[job] = serial_fn(items[job])

            if retry_next:
                self._sleep(self.policy.delay_for(round_index))
                round_index += 1
            pending = retry_next

        assert all(r is not _UNSET for r in results)
        return results


def supervised_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    max_workers: int | None = None,
    policy: RetryPolicy | None = None,
    fault_plan: FaultPlan | None = None,
) -> tuple[list[R], DegradationReport]:
    """One-shot supervised map; returns (results, degradation report)."""
    with SupervisedPool(
        max_workers, policy=policy, fault_plan=fault_plan
    ) as pool:
        results = pool.map(fn, items)
    return results, pool.report
