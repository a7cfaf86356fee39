"""Span tracing of the package's layers, installed from outside the package.

The tracer replaces module attributes and oracle methods with timing
wrappers for the duration of a `with tracer.installed(oracle):` block and
restores the originals afterwards.  Per span name it accumulates calls,
inclusive time and the time covered by child spans (so self time =
inclusive - child); the first SPAN_LOG_LIMIT spans are also kept with
their parent so one step's call tree can be inspected.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

from adammcmc import experiments, losses, prolate, samplers

SPAN_LOG_LIMIT = 2000
_INHERITED = object()
_NO_CALLS = (0, 0.0, 0.0)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, child_s]
        self.nonfinite_rejects = 0
        self.span_log: list[tuple] = []
        self._stack: list[list] = []  # open spans: [child_s, span_id]
        self._next_id = 0

    def wrap(self, name, fn, observe=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        log = self.span_log
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += frame[0]
                parent = None
                if stack:
                    stack[-1][0] += elapsed
                    parent = stack[-1][1]
                if len(log) < SPAN_LOG_LIMIT:
                    log.append((span_id, parent, name, start, start + elapsed))
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _count_nonfinite(self, args, log_alpha):
        # _finish_log_alpha(lam, loss_cur, loss_prop, in_cur, in_prop, ...):
        # an in-box proposal can only reach -inf through a non-finite term
        if args[4] and log_alpha == -np.inf:
            self.nonfinite_rejects += 1

    @contextmanager
    def installed(self, oracle):
        """Wrap the layers a chain step passes through while the block runs."""
        targets = [
            (experiments, "adammcmc_step", "samplers.step", None),
            (samplers, "adam_momentum_update", "samplers.momentum", None),
            (samplers, "adam_update_vector", "samplers.update_vector", None),
            (samplers, "_finish_log_alpha", "samplers.accept", self._count_nonfinite),
            (losses.PriorBox, "contains", "samplers.accept", None),
            (prolate.ProlateCovariance, "log_density", "prolate.log_density", None),
            (prolate.ProlateCovariance, "log_det", "prolate.log_det", None),
            (prolate.ProlateCovariance, "sample", "prolate.sample", None),
            (type(oracle), "eval_batch", "losses.forward", None),
            (type(oracle), "grad_batch", "losses.backward", None),
            (losses.BatchStream, "next", "losses.batch_next", None),
        ]
        saved = []
        try:
            for owner, attr, name, observe in targets:
                saved.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), observe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if original is _INHERITED:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    def calls(self, name) -> int:
        return self.stats.get(name, _NO_CALLS)[0]

    def inclusive_s(self, name) -> float:
        return self.stats.get(name, _NO_CALLS)[1]

    def self_s(self, name) -> float:
        _, inclusive, child = self.stats.get(name, _NO_CALLS)
        return inclusive - child

    def total_self_s(self) -> float:
        return sum(inclusive - child for _, inclusive, child in self.stats.values())

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.span_log:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )
