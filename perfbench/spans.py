"""In-memory span tracer that wraps wavemod's public functions from outside.

Each wrapped call records one span: name, start, end (perf_counter_ns) and
the index of the span that was open when it started. Wrappers replace the
function in every wavemod module namespace that holds it, so callers that
did `from wavemod.x import f` see the traced version too. Nothing inside
`src/` is edited; `uninstall` restores the originals.
"""

import importlib
import inspect
from array import array
from time import perf_counter_ns

# Which functions get a span. ber and cli are traced in full (every public
# function); the lower layers only where a per-layer metric needs them, so
# helpers such as channel.noise_rng stay inside their caller's self time.
TRACED = {
    "wavemod.filters": ("make_daubechies",),
    "wavemod.filterbank": (
        "analysis_step",
        "synthesis_step",
        "analyze_pyramid",
        "synthesize_pyramid",
    ),
    "wavemod.codec": ("place_method1", "place_method2"),
    "wavemod.channel": ("add_awgn",),
    "wavemod.detector": ("detect_block",),
    "wavemod.ber": None,  # every public function
    "wavemod.cli": None,
}


def _public_functions(module):
    return [
        name
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and not name.startswith("_")
        and obj.__module__ == module.__name__
    ]


class Tracer:
    """Span store plus the wrappers that fill it (single-threaded)."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = []
        self._patched = []
        self._wrappers = {}

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn):
        nid = self._intern(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0)
            stack.append(idx)
            self.start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        """Wrap the TRACED functions wherever a wavemod module refers to them.

        Wrappers are built on the first call and reused, so installing
        around every operation is cheap.
        """
        import wavemod

        if not self._wrappers:
            for modname, names in TRACED.items():
                module = importlib.import_module(modname)
                short = modname.split(".", 1)[1]
                for name in names or _public_functions(module):
                    fn = getattr(module, name)
                    self._wrappers[id(fn)] = (fn, self.wrap(f"{short}.{name}", fn))
        modules = [wavemod] + [importlib.import_module(m) for m in TRACED]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                fn, traced = self._wrappers.get(id(obj), (None, None))
                if obj is fn:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, traced)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def spans(self):
        """Spans as (name, start_ns, end_ns, parent_index) tuples."""
        for n, s, e, p in zip(self.name_id, self.start, self.end, self.parent):
            yield self.names[n], s, e, p

    def write_csv(self, path):
        with open(path, "w") as out:
            out.write("index,name,start_ns,end_ns,parent\n")
            for i, (name, s, e, p) in enumerate(self.spans()):
                out.write(f"{i},{name},{s},{e},{p}\n")

    def totals(self):
        """name -> (call count, summed self time in ns)."""
        own = self_times(self.start, self.end, self.parent)
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        for n, t in zip(self.name_id, own):
            calls[n] += 1
            total[n] += t
        return {name: (calls[n], total[n]) for n, name in enumerate(self.names)}


def self_times(starts, ends, parents):
    """Per span: its duration minus the part of it that child spans cover.

    Spans are given as columns; parents[i] is the index of span i's parent,
    -1 for a root. Children are visited in start order and clipped to the
    parent's interval, and time a parent already lost to one child is not
    subtracted again for an overlapping one.
    """
    own = array("q", (e - s for s, e in zip(starts, ends)))
    reach = {}  # parent -> end of the interval already subtracted from it
    for i in sorted(range(len(starts)), key=starts.__getitem__):
        p = parents[i]
        if p < 0:
            continue
        done = reach.get(p, starts[p])
        lo = max(starts[i], done)
        hi = min(ends[i], ends[p])
        if hi > lo:
            own[p] -= hi - lo
        reach[p] = max(done, hi)
    return own
