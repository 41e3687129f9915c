"""The closed loop that drives a workload and times its operations."""

from __future__ import annotations

import gc
import sys
import threading
import time
import traceback

ROOT = "op"

#: A run measures at least this many operations however slow they are.
MIN_OPERATIONS = 5


class ClosedLoop:
    """``clients`` clients, each issuing its next operation when its
    previous one has completed — callers that wait for their reply, so
    a slower system is offered less load.

    Around every operation the loop calls the workload's ``prepare``
    (untimed), times ``operate`` with its own clock, and runs the cheap
    ``verify`` and, after a traced operation, ``replay`` (untimed).  An
    operation that raises, times out or fails its check counts as
    failed and contributes no time.
    """

    def __init__(self, workload, clients: int = 1) -> None:
        self.workload = workload
        self.clients = clients
        self.seconds: dict[int, float] = {}
        self.traced: list[int] = []
        self.attempted = 0
        self.failed = 0
        self._lock = threading.Lock()

    def run(self, seconds: float, alternate: bool = False
            ) -> list[float]:
        """Measure for ``seconds``; returns the operation times.  With
        ``alternate`` every second operation is traced."""
        first = self.attempted
        deadline = time.perf_counter() + seconds
        goal = first + MIN_OPERATIONS

        def client() -> None:
            while True:
                with self._lock:
                    if time.perf_counter() >= deadline \
                            and self.attempted >= goal:
                        return
                    index = self.attempted
                    self.attempted += 1
                self._operation(index, alternate and index % 2 == 1)

        if self.clients == 1:
            client()
        else:
            threads = [
                threading.Thread(target=client, name=f"client-{n}")
                for n in range(self.clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        return [
            self.seconds[index]
            for index in range(first, self.attempted)
            if index in self.seconds
        ]

    def _operation(self, index: int, traced: bool) -> None:
        workload = self.workload
        tracer = workload.tracer
        try:
            workload.prepare(index, traced)
            if self.clients == 1:
                # Every operation starts from the same collector
                # state, so where a full collection falls inside it
                # depends on the operation and not on its predecessors.
                # (With several clients a collection would stall the
                # others' operations in flight.)
                gc.collect()
            span = None
            if traced:
                tracer.enter_exchange(index)
                span = tracer.begin(ROOT, root=True)
            started = time.perf_counter()
            try:
                result = workload.operate(index, traced)
            finally:
                elapsed = time.perf_counter() - started
                if span is not None:
                    tracer.finish(span)
            ok = workload.verify(index, result)
            if ok and traced:
                gc.collect()  # as before the operation it replays
                workload.replay(index)
        except Exception:  # noqa: BLE001 - a failed operation is a result
            traceback.print_exc(file=sys.stderr)
            ok = False
        with self._lock:
            if ok:
                self.seconds[index] = elapsed
                if traced:
                    self.traced.append(index)
            else:
                self.failed += 1

    def finish(self) -> None:
        """The byte-identity oracle counts as one more operation."""
        self.attempted += 1
        try:
            ok = self.workload.verify_final()
        except Exception:  # noqa: BLE001
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1
