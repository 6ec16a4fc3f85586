"""Persistent forked helper processes that run shares of a job.

run(fn, arg, shares) gives fn(arg, item) for every item of every share,
in share order: this process runs shares[0] and forked helpers, kept for
later calls with the same fn, run the others. A helper is sent arg and
its own share only; arg goes to every helper whole, so the data a share
works on belongs in its items, not in arg. A helper gets fn from the
fork, never through its pipe, so fn may be any callable; arg, the items
and the results must pickle, but need not hash. Nothing here knows what
the job is.
"""

import atexit
import os
import pickle
import signal
import threading
from contextlib import suppress


def usable_cpus() -> int:
    """CPUs in this process's affinity mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return 1


def run(fn, arg, shares) -> list:
    """[fn(arg, item) for share in shares for item in share], the results
    in share order.

    With one share, without os.fork, or with another thread alive (forking
    a threaded process can deadlock the child), every share runs here.
    Otherwise a helper's exception is raised here, and a helper that has
    died, or that could not be forked, has its share run here instead. Any
    exception here stops every helper, so no later call can read a stale
    reply.
    """
    if len(shares) == 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(arg, item) for share in shares for item in share]
    helpers = _ready_helpers(fn, len(shares) - 1)
    done = []
    try:
        sent = {k: h for k, h in enumerate(helpers, 1) if h.send((arg, shares[k]))}
        for k, share in enumerate(shares):
            reply = sent[k].receive() if k in sent else None
            if reply is None:
                reply = [fn(arg, item) for item in share]
            elif isinstance(reply, BaseException):
                raise reply
            done.extend(reply)
    except BaseException:
        stop()
        raise
    return done


class _Helper:
    """A forked process that runs shares with fn for the process that
    forked it, over one pipe each way, until its request pipe closes.
    It ignores SIGINT: an interrupt reaches the owner, which kills it.
    A helper found dead is closed."""

    def __init__(self, fn):
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (request_r, request_w, reply_r, reply_w):
                os.close(fd)
            raise
        if pid == 0:
            status = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                os.close(request_w)
                os.close(reply_r)
                _serve(fn, os.fdopen(request_r, "rb"), os.fdopen(reply_w, "wb"))
                status = 0
            finally:
                os._exit(status)
        os.close(request_r)
        os.close(reply_w)
        self.fn = fn
        self.pid = pid
        self.requests = os.fdopen(request_w, "wb")
        self.replies = os.fdopen(reply_r, "rb")

    def send(self, request) -> bool:
        """False if the helper has died."""
        try:
            self.requests.write(pickle.dumps(request))
            self.requests.flush()
        except BrokenPipeError:
            self.close()
            return False
        return True

    def receive(self):
        """The reply to the last request: its results in share order or the
        exception it raised; None if the helper died first."""
        try:
            return pickle.load(self.replies)
        except (EOFError, pickle.UnpicklingError):
            self.close()
            return None

    def close_pipes(self):
        for pipe in (self.requests, self.replies):
            with suppress(OSError):
                pipe.close()

    def close(self):
        """Leave the pool, kill the process, close the pipes and reap it."""
        pool.remove(self)
        with suppress(ProcessLookupError):
            os.kill(self.pid, signal.SIGKILL)
        self.close_pipes()
        with suppress(ChildProcessError):  # reaped already (SIGCHLD ignored)
            os.waitpid(self.pid, 0)


def _serve(fn, requests, replies):
    """A helper's loop. A reply that cannot be pickled ends the helper, and
    the owner then runs that share itself."""
    while True:
        try:
            arg, share = pickle.load(requests)
        except EOFError:
            return
        try:
            reply = [fn(arg, item) for item in share]
        except Exception as exc:
            reply = exc
        replies.write(pickle.dumps(reply))
        replies.flush()
        del arg, reply  # an idle helper keeps no results or work areas alive


# The helpers of this process, forked on its first call with more than one
# share and kept for later calls with the same fn; stopped at exit. A
# forked child forgets its parent's helpers, closing its copies of their
# pipes so that they still see the end of input when the parent exits,
# and forks its own.
pool: list[_Helper] = []


def _ready_helpers(fn, count: int) -> list[_Helper]:
    """Up to count helpers serving fn, forking the missing ones; fewer if a
    fork fails. Helpers forked for another fn are stopped first."""
    if any(helper.fn != fn for helper in pool):
        stop()
    try:
        while len(pool) < count:
            pool.append(_Helper(fn))
    except OSError:
        pass
    return pool[:count]


def stop():
    """Kill and reap every helper of this process."""
    while pool:
        pool[-1].close()


def _forget():
    while pool:
        pool.pop().close_pipes()


atexit.register(stop)
if hasattr(os, "fork"):
    os.register_at_fork(after_in_child=_forget)
