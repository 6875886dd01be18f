"""One forked child process: the sweep's workers and a long solve's CSV
formatter each run in one (see cli's docstring)."""

from __future__ import annotations

import contextlib
import os


class Child:
    """Forks one process that runs work(feed, out) and leaves only through
    os._exit: 0 where work returned, 1 on any exception.  feed reads, as a
    binary file, the bytes that send streams over a pipe; out is a text
    file on an anonymous in-memory file, so the child never waits for its
    parent to read.  Where the pipe, the file or the fork raises OSError,
    nothing forks and pid is 0.

    A child sees EOF on its feed only once every later child, which
    inherited the feed's write end, has exited too: the sweep's workers
    never read their feed, and a solve forks one child.  Fork is safe:
    lanestab starts no thread."""

    def __init__(self, work):
        self.pid, self.files, fds = 0, (), []
        try:
            fds += os.pipe()
            fds.append(os.memfd_create("out"))
            pid = os.fork()
        except OSError:  # no descriptor or process to spare
            list(map(os.close, fds))
            return
        feed_r, feed_w, out = fds
        if pid == 0:  # the child leaves only through _exit
            try:
                os.close(feed_w)
                with open(feed_r, "rb") as feed, open(out, "w") as text:
                    work(feed, text)
            except BaseException:
                os._exit(1)
            os._exit(0)
        os.close(feed_r)
        self.pid, self.files = pid, (open(feed_w, "wb"), open(out, "rb"))

    def send(self, data) -> None:
        """Stream data to the child's feed."""
        if self.pid:
            try:
                self.files[0].write(data)
                self.files[0].flush()
            except OSError:  # the child is gone: result says nothing forked
                self.close()

    def result(self) -> tuple[int | None, bytes]:
        """Close the feed, reap the child, and give its exit code and the
        bytes it wrote; (None, b"") where nothing forked."""
        if not self.pid:
            return None, b""
        feed, out = self.files
        feed.close()  # the child's end of input
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = 0
        out.seek(0)
        return code, out.read()

    def close(self) -> None:
        """Kill and reap a child still running; close every descriptor."""
        if self.pid:
            from signal import SIGKILL  # only a failure gets here
            os.kill(self.pid, SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0
        for fh in self.files:
            with contextlib.suppress(OSError):  # a feed the child left
                fh.close()
