"""Shared pieces of the end-to-end benchmark.

* the pass stacks of the ``eval_suite`` workload, written as spec
  strings (the wire form ``repro.api.execute`` accepts);
* an in-memory span recorder;
* :func:`traced_evaluate`, which drives one scalar evaluation request
  through the public function of each layer, with a span around each
  call, and composes the same deterministic document that
  ``repro.api.execute`` returns;
* percentile / geomean helpers and the run provenance record.

Nothing here patches the program except :class:`GoldenRunCounter`,
which wraps ``Interpreter.run`` for the duration of a traced leg so the
number of golden interpreter runs per evaluation can be counted from
outside.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".e2ebench_out")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no sources, bad args)."""


def import_repro() -> None:
    """Put the checkout's ``src`` first on the path and import repro."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SetupError(f"no repro package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro  # noqa: F401


def parse_all_modules() -> None:
    """Parse every workload's MiniC module (all variants): the front-end
    work a process pays once."""
    from repro.workloads import WORKLOADS
    for wl in WORKLOADS.values():
        for variant in ("base", *wl.variants):
            wl.module(variant)


# ---------------------------------------------------------------------------
# Pass stacks
# ---------------------------------------------------------------------------

def allopts_spec(name: str) -> str:
    """``repro.bench.configs.all_opts_for(name)`` as a spec string.

    Checked against the pass instances ``all_opts_for`` builds, so the
    benchmark notices if the paper stacks change.
    """
    from repro.bench.configs import CILK_SET, all_opts_for
    from repro.opt.specs import parse_passes
    from repro.workloads import get_workload
    if name in CILK_SET:
        spec = "cache_banking=4,fusion,pipelining,tiling=4,tuning"
    else:
        spec = "cache_banking=4,localize,banking=4,fusion,tuning"
    if get_workload(name).tensor:
        spec = "tensor," + spec
    mine = [(type(p).__name__, vars(p)) for p in parse_passes(spec)]
    ref = [(type(p).__name__, vars(p)) for p in all_opts_for(name)]
    if mine != ref:
        raise SetupError(f"allopts spec for {name} drifted from "
                         f"all_opts_for: {mine} != {ref}")
    return spec


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class SpanRecorder:
    """Spans kept in memory and written out once, at the end."""

    def __init__(self):
        #: (id, parent id, request id, name, start_ns, end_ns)
        self.spans: List[Tuple[int, Optional[int], int, str, int, int]] = []
        self._stack: List[int] = []
        self._next = 0

    @contextlib.contextmanager
    def span(self, name: str, req: int):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, req, name, start, end))

    def self_ms(self) -> Dict[int, Dict[str, float]]:
        """Per request: span name -> self time (ms), i.e. the span's
        duration minus the part its child spans cover."""
        child_ns: Dict[int, int] = {}
        for _sid, parent, _req, _name, start, end in self.spans:
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        out: Dict[int, Dict[str, float]] = {}
        for sid, _parent, req, name, start, end in self.spans:
            per = out.setdefault(req, {})
            per[name] = per.get(name, 0.0) + \
                (end - start - child_ns.get(sid, 0)) / 1e6
        return out

    def wall_ms(self, name: str) -> Dict[int, float]:
        return {req: (end - start) / 1e6
                for _s, _p, req, n, start, end in self.spans if n == name}

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for sid, parent, req, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "req": req, "name": name,
                                     "start_ns": start,
                                     "end_ns": end}) + "\n")


class GoldenRunCounter:
    """Counts ``Interpreter.run`` calls while installed (a context
    manager); the traced path reads it around ``Workload.verify``."""

    def __init__(self):
        self.count = 0

    def __enter__(self):
        from repro.frontend.interp import Interpreter
        self._cls = Interpreter
        self._orig = Interpreter.run
        orig = self._orig

        def counted(interp, *args):
            self.count += 1
            return orig(interp, *args)

        Interpreter.run = counted
        return self

    def __exit__(self, *exc):
        self._cls.run = self._orig
        return False


# ---------------------------------------------------------------------------
# The traced evaluation path
# ---------------------------------------------------------------------------

#: Layer of each span name; a layer's time is the self time of its
#: spans.  The two ``api.*`` spans are reported apart.
LAYER_OF = {
    "frontend.interp": "frontend", "core.fingerprint": "core",
    "workloads.verify": "workloads", "rtl.synth": "rtl",
}


def doc_bytes(doc: Dict) -> bytes:
    return json.dumps(doc, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


class TracedEval:
    """What one traced evaluation produced, beside its spans."""

    __slots__ = ("doc", "cycles", "stats", "alms", "nodes",
                 "passes_changed", "nodes_delta", "golden_runs",
                 "workload_verified")

    def __init__(self):
        self.doc = None
        self.cycles = 0
        self.stats = None
        self.alms = 0
        self.nodes = 0
        self.passes_changed = 0
        self.nodes_delta = 0
        self.golden_runs = 0
        self.workload_verified = False


def traced_evaluate(request, rec: SpanRecorder, req: int,
                    golden: GoldenRunCounter) -> TracedEval:
    """One scalar request through each layer's public function.

    The composition mirrors ``repro.api.run_request`` for scalar
    requests; its document must equal ``execute(request).evaluation``
    byte for byte (the ``eval_suite`` oracle checks that).  It also
    fingerprints the optimized circuit, which ``execute`` skips but the
    DSE content cache pays for every fresh point.
    """
    from repro.api import Pipeline, coerce_request_args, evaluation_doc
    from repro.core.serialize import canonical_circuit, circuit_fingerprint
    from repro.frontend.interp import Interpreter, Memory
    from repro.rtl import synthesize
    from repro.sim import simulate

    out = TracedEval()
    params = request.sim_params()
    with rec.span("api.execute", req):
        with rec.span("frontend", req):
            pipe = Pipeline(request.workload if request.workload is not None
                            else request.source,
                            variant=request.variant, name=request.name)
            out.nodes = sum(1 for _ in pipe.circuit.all_nodes())
        with rec.span("opt", req):
            pipe.optimize(request.passes or None)
        with rec.span("core.fingerprint", req):
            circuit_fingerprint(canonical_circuit(pipe.circuit))
        wl = pipe.workload
        with rec.span("sim", req):
            args = None
            if request.args is not None:
                args = coerce_request_args(pipe.module, request.args)
            if wl is not None:
                if args is None:
                    args = wl.args_for(pipe.variant)
                memory = wl.fresh_memory(pipe.variant)
            else:
                memory = Memory(pipe.module)
                if request.seed is not None:
                    from repro.util.rng import seed_memory
                    seed_memory(memory, request.seed)
                args = args or ()
                snapshot = list(memory.words)
            result = simulate(pipe.circuit, memory, list(args), params)
        pipe.sim, pipe.memory = result, memory
        if not request.check:
            pipe.verified = None
        elif wl is not None:
            with rec.span("workloads.verify", req):
                before = golden.count
                wl.verify(memory, pipe.variant)
                out.golden_runs = golden.count - before
            pipe.verified = True
            out.workload_verified = True
        else:
            with rec.span("frontend.interp", req):
                ref = Memory(pipe.module)
                ref.words[:] = snapshot
                returned = Interpreter(pipe.module, ref).run(*args)
            if returned is None:
                expected: List = []
            elif isinstance(returned, (list, tuple)):
                expected = list(returned)
            else:
                expected = [returned]
            pipe.verified = (memory.words == ref.words
                             and list(result.results) == expected)
        with rec.span("rtl.synth", req):
            pipe.synth = synthesize(pipe.circuit, name=pipe.name)
        with rec.span("api.serialize", req):
            doc = evaluation_doc(pipe.evaluation())
            doc_bytes(doc)
    out.doc = doc
    out.cycles = result.cycles
    out.stats = result.stats
    out.alms = pipe.synth.alms
    out.passes_changed = sum(1 for r in pipe.pass_log if r.changed)
    out.nodes_delta = sum(r.delta_nodes for r in pipe.pass_log)
    return out


def layer_metrics(rec: SpanRecorder, evals: Dict[int, TracedEval],
                  untraced_ms: Dict[int, float]) -> Dict[str, float]:
    """Per-layer metrics of a traced leg.

    ``evals`` maps request id -> traced result; ``untraced_ms`` maps
    the same ids to the wall time of the untraced ``execute()`` of the
    same request.  Times are means per evaluation, so the layer times
    add up to the evaluation's wall time.
    """
    selfs = rec.self_ms()
    roots = rec.wall_ms("api.execute")
    ids = sorted(evals)
    n = len(ids)
    layer_sum = {k: 0.0 for k in ("frontend", "opt", "core", "sim",
                                  "workloads", "rtl", "api.serialize",
                                  "api.execute")}
    for req in ids:
        for name, ms in selfs.get(req, {}).items():
            layer_sum[LAYER_OF.get(name, name)] += ms
    mean = {k: v / n for k, v in layer_sum.items()}
    cycles = sum(evals[r].cycles for r in ids)
    stats = [evals[r].stats for r in ids]
    hits = sum(s.cache_hits for s in stats)
    misses = sum(s.cache_misses for s in stats)
    verified = [r for r in ids if evals[r].workload_verified]
    root_mean = sum(roots[r] for r in ids) / n
    untraced_mean = sum(untraced_ms[r] for r in ids) / n
    # execute() does not fingerprint; compare like with like.
    spans_mean = sum(v for k, v in mean.items()
                     if k not in ("api.execute", "core"))
    return {
        "frontend.ms": mean["frontend"],
        "frontend.nodes": sum(evals[r].nodes for r in ids) / n,
        "opt.ms": mean["opt"],
        "opt.passes_changed": sum(evals[r].passes_changed
                                  for r in ids) / n,
        "opt.nodes_delta": sum(evals[r].nodes_delta for r in ids) / n,
        "core.fingerprint_ms": mean["core"],
        "sim.ms": mean["sim"],
        "sim.host_us_per_cycle": layer_sum["sim"] * 1e3 / max(cycles, 1),
        "sim.cycles": cycles / n,
        "sim.node_fires": sum(sum(s.node_fires.values())
                              for s in stats) / n,
        "sim.memory_requests": sum(s.memory_reads + s.memory_writes
                                   for s in stats) / n,
        "sim.cache_hit_ratio": hits / max(hits + misses, 1),
        "sim.dram_requests": sum(s.dram_requests for s in stats) / n,
        "sim.bank_conflict_stalls": sum(s.bank_conflict_stalls
                                        for s in stats) / n,
        "workloads.verify_ms": mean["workloads"],
        "workloads.golden_runs": (sum(evals[r].golden_runs
                                      for r in verified) / len(verified)
                                  if verified else 0.0),
        "rtl.alms": sum(evals[r].alms for r in ids) / n,
        "rtl.synth_ms": mean["rtl"],
        "api.serialize_ms": mean["api.serialize"],
        "api.overhead_ms": untraced_mean - spans_mean,
        "trace.overhead_pct": 100.0 * (root_mean - mean["core"]
                                       - untraced_mean) / untraced_mean,
    }


def layer_shares(metrics: Dict[str, float]) -> Dict[str, float]:
    """Each layer's share of the traced evaluation time (%)."""
    parts = {k: metrics[k] for k in (
        "frontend.ms", "opt.ms", "core.fingerprint_ms", "sim.ms",
        "workloads.verify_ms", "rtl.synth_ms", "api.serialize_ms")}
    total = sum(parts.values())
    return {k: round(100.0 * v / total, 2) for k, v in parts.items()} \
        if total else {}


# ---------------------------------------------------------------------------
# Statistics and provenance
# ---------------------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 100])."""
    data = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(data)))
    return data[rank - 1]


def tail_percentile(n: int) -> Optional[int]:
    """The highest of 99/95/90/75/50 with at least ten samples beyond
    it in a sample of ``n``; None when even the median lacks them."""
    for q in (99, 95, 90, 75, 50):
        if n - math.ceil(q / 100.0 * n) >= 10:
            return q
    return None


def geomean(values: Iterable[float]) -> float:
    vals = list(values)
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

#: What one reference sample is taken to last on the nominal host (ms).
#: Wall metrics are reported as if every sample had taken this long.
REF_NOMINAL_MS = 5.0
_REF_NODES = 4096
_REF_ROWS = 50_000
_REF_STEPS = 2500


class _RefNode:
    __slots__ = ("a", "b", "out")

    def __init__(self, a: int):
        self.a = a
        self.b = 0
        self.out: Tuple = ()


class _Reference:
    """The reference work: a heap of events over an object graph and a
    50k-entry table, the interpreter operations a simulator spends its
    time on."""

    def __init__(self):
        nodes = [_RefNode(i) for i in range(_REF_NODES)]
        for i, node in enumerate(nodes):
            node.out = (nodes[(i * 7 + 3) % _REF_NODES],
                        nodes[(i * 5 + 1) % _REF_NODES])
        self._nodes = nodes
        self._table = [[i] * 4 for i in range(_REF_ROWS)]

    def sample_ms(self) -> float:
        import heapq
        nodes, table = self._nodes, self._table
        heap = [(0, i) for i in range(0, _REF_NODES, 16)]
        t = time.perf_counter()
        for _ in range(_REF_STEPS):
            t0, i = heapq.heappop(heap)
            node = nodes[i]
            node.b = (node.b + node.a + t0) & 0xFFFF
            table[(node.b * 31 + i) % _REF_ROWS][t0 & 3] = node.b
            for o in node.out:
                o.a = (o.a + node.b) & 1023
            heapq.heappush(heap, (t0 + 1 + (node.b & 3),
                                  (i * 13 + 1) % _REF_NODES))
        return (time.perf_counter() - t) * 1e3


def _reference_helper(conn) -> None:
    ref = _Reference()
    while True:
        n = conn.recv()
        if n is None:
            return
        conn.send([ref.sample_ms() for _ in range(n)])


class HostSpeed:
    """Reference samples taken between a run's timed operations.

    The shared host this benchmark runs on changes speed by up to ~1.8x
    over minutes, and a pure-Python program (this one) slows with it:
    no statistic inside one run can undo a run that fell in a slow
    stretch.  So the end-to-end wall metrics are reported at a nominal
    host speed: a wall time is multiplied by
    ``REF_NOMINAL_MS / m``, where ``m`` is the harmonic mean of the
    reference samples taken beside it (the same pass or round, or the
    whole run): the reference's throughput, which is what a pool of
    workers that share out the points gets from cores of unequal speed,
    and which a stray slow sample barely moves.  A reference sample is a fixed pure-Python loop of the benchmark's
    own (:class:`_Reference`); it does not touch the program, so a
    change to the program cannot move it.  Raw times and the scales
    stay in the result file.

    With ``parallel`` > 1 the samples run in that many processes at
    once (this one and ``parallel - 1`` helpers), for timed work that
    keeps that many cores busy: a process pool speeds up and slows down
    with the host differently from a lone process.  Use as a context
    manager so the helpers are stopped.
    """

    def __init__(self, parallel: int = 1):
        self._ref = _Reference()
        self.parallel = parallel
        self.samples: List[float] = []
        self._helpers = []
        import multiprocessing
        ctx = multiprocessing.get_context("fork")
        try:
            for _ in range(parallel - 1):
                mine, theirs = ctx.Pipe()
                proc = ctx.Process(target=_reference_helper,
                                   args=(theirs,), daemon=True)
                proc.start()
                theirs.close()
                self._helpers.append((proc, mine))
        except BaseException:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def close(self) -> None:
        for proc, conn in self._helpers:
            try:
                conn.send(None)
            except OSError:
                pass
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=10)
            conn.close()
        self._helpers = []

    def sample(self, n: int = 1) -> None:
        for _proc, conn in self._helpers:
            conn.send(n)
        for _ in range(n):
            self.samples.append(self._ref.sample_ms())
        for _proc, conn in self._helpers:
            self.samples.extend(conn.recv())

    def mark(self) -> int:
        """Position to pass to :meth:`scale` for the samples after now."""
        return len(self.samples)

    def scale(self, start: int = 0, end: Optional[int] = None) -> float:
        """Nominal over measured reference time for the samples in
        ``[start, end)``: multiply a wall time by it (divide a rate)."""
        return REF_NOMINAL_MS / statistics.harmonic_mean(
            self.samples[start:end])

    def summary(self) -> Dict:
        return {"nominal_ms": REF_NOMINAL_MS, "parallel": self.parallel,
                "samples": len(self.samples),
                "harmonic_mean_ms": statistics.harmonic_mean(self.samples),
                "median_ms": statistics.median(self.samples),
                "quartiles_ms": statistics.quantiles(self.samples, n=4),
                "samples_ms": self.samples}


def source_digest() -> str:
    """SHA-256 over the checkout's ``src`` tree (path + bytes)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            if not fn.endswith(".py"):
                continue
            path = os.path.join(dirpath, fn)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(seed: int, workload: str, trace: bool,
               seconds: float) -> Dict:
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "seconds": seconds, "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(), "src_sha256": source_digest(),
    }
