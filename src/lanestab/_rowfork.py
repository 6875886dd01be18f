"""The forked CSV row formatter of a long `solve` (see cli's docstring).

cli imports this module only once a run passes cli._FORK_NODES nodes, so
the shorter runs never compile it.
"""

from __future__ import annotations

import contextlib
import os
from array import array

_READ_BYTES = 24 * 256  # any multiple of 24 bytes (one node) works


class RowFormatter:
    """Forks one process that formats the CSV rows of `nodes`, then of the
    nodes `send` streams to it over a pipe as raw doubles, while the run
    goes on.  The child appends its text to an anonymous in-memory file as
    it goes, so solve waits for it only at the end of the run, for the
    rows it has not formatted yet.  Where the pipe, the file or the fork
    cannot be made it formats nothing, and `rows` gives None.  Fork is
    safe: solve starts no thread."""

    def __init__(self, params, nodes: array):
        self.pid, self.sent = 0, len(nodes)  # sent: doubles the child has
        self.to_child = self.text = None
        fds = []
        try:
            fds += os.pipe()
            fds.append(os.memfd_create("rows"))
            pid = os.fork()
        except OSError:  # no file or process to spare: solve formats serially
            for fd in fds:
                os.close(fd)
            return
        down_r, down_w, text_fd = fds
        if pid == 0:  # the child leaves only through _exit
            try:
                from .cli import _csv_rows
                os.close(down_w)
                _, rows = _csv_rows(params, nodes[1], nodes[2])
                with open(down_r, "rb") as fh, open(text_fd, "wb") as out:
                    more = nodes
                    while more:  # a sink batch of 256 nodes, or fewer
                        out.write(rows(more[0::3], more[1::3],
                                       more[2::3]).encode())
                        more = array("d", fh.read(_READ_BYTES))
            except BaseException:
                os._exit(1)
            os._exit(0)
        os.close(down_r)
        self.pid = pid
        self.to_child, self.text = open(down_w, "wb"), open(text_fd, "rb")

    def send(self, nodes: array) -> None:
        """Stream the child the nodes it does not have yet."""
        if self.pid:
            try:
                self.to_child.write(nodes[self.sent:])
                self.to_child.flush()
                self.sent = len(nodes)
            except OSError:  # the child is gone: solve formats serially
                self.close()

    def rows(self, count: int) -> str | None:
        """The child's text, where it exited 0 with the rows of exactly
        `count` nodes, else None; call once the run has ended.  The child
        is reaped."""
        if not self.pid:
            return None
        self.to_child.close()  # end of input
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = 0
        self.text.seek(0)
        text = self.text.read().decode()
        self.close()
        return text if code == 0 and text.count("\n") == count else None

    def close(self) -> None:
        """Stop and reap a child still running; close the pipe and the
        text file."""
        if self.pid:
            from signal import SIGKILL  # only a failed run gets here
            os.kill(self.pid, SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0
        for fh in (self.to_child, self.text):
            if fh is not None:
                with contextlib.suppress(OSError):
                    fh.close()
        self.to_child = self.text = None
