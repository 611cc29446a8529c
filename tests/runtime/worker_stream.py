"""Run a parallel worker's loop in the test process over a scripted pipe."""

from __future__ import annotations

import gc
from collections import deque

from repro.runtime import parallel


class ScriptedPipe:
    """A worker's end of its pipe: ``recv`` hands out the scripted
    messages, then EOF; ``send`` records what the worker answers."""

    def __init__(self, *messages: list) -> None:
        self.inbox = deque(messages)
        self.sent: list[list] = []

    def recv(self) -> list:
        if not self.inbox:
            raise EOFError
        return self.inbox.popleft()

    def send(self, message: list) -> None:
        self.sent.append(message)

    def close(self) -> None:
        pass


def run_worker(datapath, *messages: list) -> list[list]:
    """The messages a worker answers ``messages`` with, in order.

    The loop runs inline until the script ends; the heap freeze it
    starts with is undone before returning.
    """
    pipe = ScriptedPipe(*messages)
    try:
        parallel._worker_main(0, lambda core: datapath, pipe)
    finally:
        gc.unfreeze()
    return pipe.sent
