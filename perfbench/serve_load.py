"""The serve workload: an open-loop generator against a ``repro serve`` daemon.

The daemon runs in its own process (``repro serve --workers 1``, with
its telemetry on), pinned to one core; this process is the load
generator, pinned to the other.  The generator is one process with one
pipelined TCP connection and no asyncio: it writes every request whose
due time has passed, then waits in ``select`` for replies or the next
due time.  Latency runs from a request's *due* time, not from when it
was written, so a generator stall is charged to the requests it
delayed; how late the generator wrote each request is reported
separately as ``serve.generator_lag_ms``.

Traffic: tenants are per-machine models fitted to a pool of synthetic
machines (four families, two fits per machine on different training
windows, so every tenant distribution is distinct).  Most ``solve``
requests take an age from a per-tenant bucket set (repeats the batcher
and cache can share); a slice takes a fresh age (cold solves).  The
bucket count and unique share are those ``repro.serve.bench.BenchConfig``
documents (12 buckets, 10% unique).  The tenant count and the share of
``register`` writes, which swap a tenant between its two fits, are
assumptions of this benchmark: nothing in the repository measures them.
"""

from __future__ import annotations

import json
import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from repro.core.markov import CheckpointCosts  # noqa: E402
from repro.core.optimizer import optimize_interval  # noqa: E402
from repro.core.solver_cache import use_solver_cache  # noqa: E402
from repro.distributions.fitting import fit_model  # noqa: E402
from repro.obs.metrics import Histogram  # noqa: E402
from repro.serve.models import distribution_from_spec, distribution_to_spec  # noqa: E402

from batch import BASE_SEED, base_pool  # noqa: E402
from probe import pin, probe_core, rescale  # noqa: E402

#: assumed: four tenants per model family
TENANTS = 16
TENANT_MODELS = ("weibull", "hyperexp2", "exponential", "hyperexp3")
TENANT_COSTS = (50.0, 110.0, 250.0, 500.0)
#: as ``repro.serve.bench.BenchConfig`` (age_buckets, unique_age_fraction)
AGE_BUCKETS = 12
UNIQUE_AGE_FRACTION = 0.1
#: assumed: one write per 500 requests
REGISTER_FRACTION = 0.002
#: offered rate of the latency segments (p50/p99), and requests per
#: segment
REFERENCE_QPS = 1000.0
REFERENCE_SEGMENT = 1500
#: reference segments a run needs the generator to have kept pace in:
#: p99_ms pools their samples, and fewer than ten left it at the mercy
#: of one stall of the host
MIN_VALID_SEGMENTS = 10
#: the capacity ladder's grid: LADDER_BASE_QPS * LADDER_STEP**k, k >= 0.
#: It is climbed from the grid rate below START_FRACTION of the measured
#: burst throughput until a rung fails -- there is no top rung -- then
#: narrowed by REFINE_STEPS geometric bisections between the last pass
#: and the first failure (1.25 ** (1/8): steps of 2.8%)
LADDER_BASE_QPS = 1000.0
LADDER_STEP = 1.25
START_FRACTION = 0.7
REFINE_STEPS = 3
#: share of ``--seconds`` each rung runs for
RUNG_FRACTION = 0.05
#: a rung passes when its p99 (from due time) is within this limit ...
P99_LIMIT_MS = 100.0
#: ... its backlog does not grow (last-quarter median latency within
#: this much of the first quarter's: a queue near the knee wanders by
#: 10-20 ms, one 5% past it grows by about 40 ms over a 1 s rung) ...
BACKLOG_GROWTH_MS = 25.0
#: ... and the generator kept pace (else the rung is invalid)
GENERATOR_LAG_LIMIT_MS = 2.5
#: requests in one burst of the burst phase (``wall_s``)
BURST_REQUESTS = 2000
#: served answers re-solved directly per run
EQUIVALENCE_SAMPLE = 60
EQUIVALENCE_REL_TOL = 1e-9
SETUP_REPEATS = 3
REPLY_TIMEOUT_S = 5.0
SERVE_ARGS = ("--port", "0", "--metrics-port", "0", "--workers", "1")


# ----------------------------------------------------------------------
# tenants and traffic
# ----------------------------------------------------------------------
@dataclass
class Tenant:
    name: str
    specs: tuple[dict[str, Any], dict[str, Any]]
    costs: CheckpointCosts
    buckets: np.ndarray
    version: int = 0

    def register_request(self, request_id: int, version: int) -> dict[str, Any]:
        c = self.costs
        return {
            "op": "register",
            "id": request_id,
            "pool": self.name,
            "model": self.specs[version],
            "costs": {"checkpoint": c.checkpoint, "recovery": c.recovery, "latency": c.latency},
        }


def make_tenants(seed: int) -> list[Tenant]:
    """Per-machine fits on the base pool, two per tenant; the seed draws
    each tenant's age buckets."""
    pool = base_pool(TENANTS)
    rng = np.random.default_rng([seed, 1])
    tenants = []
    for i, trace in enumerate(sorted(pool.traces, key=lambda t: t.machine_id)):
        model = TENANT_MODELS[i % len(TENANT_MODELS)]
        fit_rng = np.random.default_rng([BASE_SEED, i])
        specs = tuple(
            distribution_to_spec(fit_model(model, trace.durations[lo : lo + 25], rng=fit_rng))
            for lo in (0, 25)
        )
        cost = TENANT_COSTS[i % len(TENANT_COSTS)]
        tenants.append(
            Tenant(
                name=f"tenant-{i:02d}",
                specs=specs,  # type: ignore[arg-type]
                costs=CheckpointCosts(cost, cost, 10.0),
                buckets=np.round(rng.uniform(0.0, 2.0e4, AGE_BUCKETS), 0),
            )
        )
    return tenants


@dataclass
class Phase:
    """Pre-encoded requests with due offsets (seconds from phase start)."""

    lines: list[bytes]
    due: np.ndarray
    first_id: int
    #: (tenant index, version, age) per solve request; None for writes
    solves: list[tuple[int, int, float] | None]


class Traffic:
    """Builds each phase's request stream from the seed."""

    def __init__(self, seed: int, tenants: list[Tenant]) -> None:
        self.seed = seed
        self.tenants = tenants
        self.next_id = 0
        self.phases = 0

    def phase(self, n: int, rate_qps: float | None) -> Phase:
        """``n`` requests at Poisson arrivals of ``rate_qps`` (``None``:
        all due at once, a burst)."""
        self.phases += 1
        rng = np.random.default_rng([self.seed, 2, self.phases])
        due = (
            np.cumsum(rng.exponential(1.0 / rate_qps, n)) if rate_qps else np.zeros(n)
        )
        first = self.next_id
        lines: list[bytes] = []
        solves: list[tuple[int, int, float] | None] = []
        for k in range(n):
            rid = first + k
            t = int(rng.integers(len(self.tenants)))
            tenant = self.tenants[t]
            if rate_qps and rng.random() < REGISTER_FRACTION:
                tenant.version ^= 1
                request = tenant.register_request(rid, tenant.version)
                solves.append(None)
            else:
                if rng.random() < UNIQUE_AGE_FRACTION:
                    age = float(np.round(rng.uniform(0.0, 3.0e4), 6))
                else:
                    age = float(tenant.buckets[int(rng.integers(AGE_BUCKETS))])
                request = {"op": "solve", "id": rid, "pool": tenant.name, "age": age}
                solves.append((t, tenant.version, age))
            lines.append((json.dumps(request) + "\n").encode())
        self.next_id = first + n
        return Phase(lines=lines, due=due, first_id=first, solves=solves)

    def warm_phase(self) -> Phase:
        """A burst that solves every bucket age under both fits of every
        tenant, leaving each tenant on its current fit: afterwards only
        unique ages miss the daemon's cache, whatever the seed."""
        first = self.next_id
        lines: list[bytes] = []
        solves: list[tuple[int, int, float] | None] = []
        for t, tenant in enumerate(self.tenants):
            for version in (tenant.version ^ 1, tenant.version):
                requests: list[dict[str, Any]] = [
                    tenant.register_request(first + len(lines), version)
                ]
                solves.append(None)
                for age in tenant.buckets:
                    requests.append(
                        {"op": "solve", "id": first + len(lines) + len(requests), "pool": tenant.name, "age": float(age)}
                    )
                    solves.append((t, version, float(age)))
                lines.extend((json.dumps(r) + "\n").encode() for r in requests)
        self.next_id = first + len(lines)
        return Phase(lines=lines, due=np.zeros(len(lines)), first_id=first, solves=solves)


# ----------------------------------------------------------------------
# the generator
# ----------------------------------------------------------------------
@dataclass
class PhaseResult:
    latency_ms: np.ndarray  # from due time; NaN when unanswered
    lag_ms: np.ndarray  # write time minus due time
    ok: np.ndarray
    t_opt: np.ndarray
    wall_s: float  # first due time to last reply

    @property
    def failed(self) -> int:
        return int((~self.ok).sum())

    @property
    def answered(self) -> np.ndarray:
        return self.latency_ms[np.isfinite(self.latency_ms)]


class Client:
    """One pipelined JSON-lines connection."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.sock, selectors.EVENT_READ)
        self.pending = b""

    def close(self) -> None:
        self.selector.close()
        self.sock.close()

    def call(self, request: dict[str, Any]) -> dict[str, Any]:
        """One request, answered before returning (control plane)."""
        phase = Phase([(json.dumps(request) + "\n").encode()], np.zeros(1), int(request["id"]), [None])
        replies: list[dict[str, Any]] = []
        self.run(phase, keep=replies)
        if not replies:
            raise ConnectionError(f"no reply to {request['op']!r}")
        return replies[0]

    def run(self, phase: Phase, keep: list[dict[str, Any]] | None = None) -> PhaseResult:
        n = len(phase.lines)
        latency = np.full(n, np.nan)
        lag = np.zeros(n)
        ok = np.zeros(n, dtype=bool)
        t_opt = np.full(n, np.nan)
        out = b""
        sent = received = 0
        perf = time.perf_counter
        start = perf() + 0.002
        due_abs = start + phase.due
        deadline = due_abs[-1] + REPLY_TIMEOUT_S
        last_reply = start

        def write_due() -> None:
            """Write every request whose due time has passed."""
            nonlocal out, sent
            now = perf()
            while sent < n and due_abs[sent] <= now:
                out += phase.lines[sent]
                lag[sent] = now - due_abs[sent]
                sent += 1
            if out:
                try:
                    out = out[self.sock.send(out) :]
                except BlockingIOError:
                    pass

        while received < n:
            if perf() > deadline:
                break
            write_due()
            wait = due_abs[sent] - perf() if sent < n else deadline - perf()
            if out:
                wait = min(wait, 0.0005)
            if not self.selector.select(max(wait, 0.0)):
                continue
            data = self.sock.recv(1 << 20)
            if not data:
                raise ConnectionError("daemon closed the connection")
            now = perf()
            *lines, self.pending = (self.pending + data).split(b"\n")
            for i, raw in enumerate(lines):
                reply = json.loads(raw)
                k = int(reply["id"]) - phase.first_id
                if 0 <= k < n:  # else a late reply to an earlier phase
                    latency[k] = (now - due_abs[k]) * 1e3
                    ok[k] = bool(reply.get("ok"))
                    if ok[k] and "result" in reply:
                        t_opt[k] = float(reply["result"]["T_opt"])
                    if keep is not None:
                        keep.append(reply)
                    received += 1
                if i % 64 == 63:
                    # a large read takes a while to parse: keep writing
                    write_due()
            last_reply = now
        return PhaseResult(latency, lag * 1e3, ok, t_opt, last_reply - start)


# ----------------------------------------------------------------------
# the daemon
# ----------------------------------------------------------------------
class Daemon:
    """A spawned ``repro serve`` process plus its connection."""

    def __init__(self, tmp_dir: str, tenants: list[Tenant], *, traced: bool) -> None:
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.out_dir = tmp_dir
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "daemon.py"), tmp_dir, "--", *SERVE_ARGS]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", *SERVE_ARGS]
        self.log = open(os.path.join(tmp_dir, "daemon.log"), "a")
        before = probe_core(0)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self.log, text=True
        )
        self.client: Client | None = None
        try:
            pin(self.proc.pid, 0)
            assert self.proc.stdout is not None
            banner = self.proc.stdout.readline()
            match = re.search(r"listening on [^:]+:(\d+)", banner)
            if match is None:
                raise RuntimeError(f"daemon did not start: {banner!r}")
            self.client = Client(int(match.group(1)))
            self.next_id = -1
            if not self.call({"op": "ping"}).get("ok"):
                raise RuntimeError("daemon did not answer ping")
            for tenant in tenants:
                reply = self.call(tenant.register_request(self.next_id, tenant.version))
                if not reply.get("ok"):
                    raise RuntimeError(f"register failed: {reply}")
            self.setup_s = time.perf_counter() - t0
            self.normalised_setup_s = rescale(self.setup_s, [before, probe_core(0)])
        except BaseException:
            self.stop()
            raise

    def call(self, request: dict[str, Any]) -> dict[str, Any]:
        assert self.client is not None
        request["id"] = self.next_id
        self.next_id -= 1
        return self.client.call(request)

    def stats(self) -> dict[str, Any]:
        return dict(self.call({"op": "stats"})["stats"])

    def metrics(self) -> dict[str, Any]:
        return dict(self.call({"op": "metrics"})["metrics"])

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def layer_dump(self) -> dict[str, Any]:
        """Ask the traced daemon for its layer totals so far."""
        existing = len([f for f in os.listdir(self.out_dir) if f.startswith("layers-")])
        path = os.path.join(self.out_dir, f"layers-{existing}.json")
        os.kill(self.proc.pid, signal.SIGUSR1)
        deadline = time.perf_counter() + 5.0
        while not os.path.exists(path):
            if time.perf_counter() > deadline:
                raise RuntimeError("traced daemon wrote no layer totals")
            time.sleep(0.01)
        with open(path) as fh:
            return dict(json.load(fh))

    def stop(self) -> None:
        try:
            if self.client is not None and self.proc.poll() is None:
                try:
                    self.call({"op": "shutdown"})
                except (OSError, ConnectionError):
                    pass
                self.client.close()
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10.0)
        finally:
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            self.log.close()


# ----------------------------------------------------------------------
# measurements
# ----------------------------------------------------------------------
def check_answers(
    tenants: list[Tenant], phases: list[tuple[Phase, PhaseResult]], seed: int
) -> tuple[int, int]:
    """Re-solve a sample of served answers directly, outside any cache.
    Returns (checked, mismatched)."""
    candidates = [
        (phase.solves[k], res.t_opt[k])
        for phase, res in phases
        for k in np.flatnonzero(res.ok)
        if phase.solves[k] is not None
    ]
    rng = np.random.default_rng([seed, 3])
    picks = rng.choice(len(candidates), size=min(EQUIVALENCE_SAMPLE, len(candidates)), replace=False)
    bad = 0
    with use_solver_cache(None):
        for i in picks:
            (t, version, age), served = candidates[int(i)]
            tenant = tenants[t]
            direct = optimize_interval(
                distribution_from_spec(tenant.specs[version]), tenant.costs, age=age
            ).T_opt
            if not abs(served - direct) <= EQUIVALENCE_REL_TOL * direct:
                bad += 1
    return len(picks), bad


def _quantile_ms(before: dict[str, Any], after: dict[str, Any], name: str, q: float) -> float:
    """A histogram quantile over the interval between two snapshots
    (bucket counts are differenced; min and max stay lifetime values)."""
    a = after["histograms"].get(name)
    if a is None:
        return 0.0
    b = before["histograms"].get(name, {"buckets": [0] * len(a["buckets"]), "count": 0, "sum": 0.0})
    h = Histogram()
    h.buckets = [x - y for x, y in zip(a["buckets"], b["buckets"], strict=True)]
    h.count = int(a["count"] - b["count"])
    h.sum = float(a["sum"] - b["sum"])
    h.min, h.max = float(a["min"]), float(a["max"])
    return h.quantile(q) * 1e3 if h.count else 0.0


def _hist_mean(before: dict[str, Any], after: dict[str, Any], name: str) -> float:
    a = after["histograms"].get(name)
    if a is None:
        return 0.0
    b = before["histograms"].get(name, {"count": 0, "sum": 0.0})
    n = a["count"] - b["count"]
    return (a["sum"] - b["sum"]) / n if n else 0.0


def serve_layers(
    before: tuple[dict[str, Any], dict[str, Any]],
    after: tuple[dict[str, Any], dict[str, Any]],
    lag_ms: np.ndarray,
) -> dict[str, float]:
    """serve.* and solve cache metrics over one phase, from the daemon's
    own ``metrics`` and ``stats`` ops."""
    m0, s0 = before
    m1, s1 = after
    hits = s1["cache"]["hits"] - s0["cache"]["hits"]
    misses = s1["cache"]["misses"] - s0["cache"]["misses"]
    queries = s1["batch"]["queries"] - s0["batch"]["queries"]
    solves = s1["batch"]["solves"] - s0["batch"]["solves"]
    return {
        "serve.parse.p99_ms": _quantile_ms(m0, m1, "serve.lifecycle.parse_seconds", 0.99),
        "serve.queue_wait.p99_ms": _quantile_ms(m0, m1, "serve.lifecycle.queue_wait_seconds", 0.99),
        "serve.batch.mean_size": _hist_mean(m0, m1, "serve.batch.size"),
        "serve.solve.p99_ms": _quantile_ms(m0, m1, "serve.lifecycle.solve_seconds", 0.99),
        "serve.respond.p99_ms": _quantile_ms(m0, m1, "serve.lifecycle.respond_seconds", 0.99),
        "serve.solves_per_request": solves / queries if queries else 0.0,
        "serve.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "serve.rejected": float(s1["rejected"] - s0["rejected"]),
        "serve.generator_lag_ms": float(np.percentile(lag_ms, 99)),
        "solve.cache_hits": float(hits),
        "solve.cache_misses": float(misses),
        "solve.cache_evictions": float(s1["cache"]["evictions"] - s0["cache"]["evictions"]),
        "solve.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
    }


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    checked: list[tuple[Phase, PhaseResult]] = field(default_factory=list)

    def add(self, phase: Phase, result: PhaseResult) -> PhaseResult:
        self.attempted += len(phase.lines)
        self.failed += result.failed
        self.checked.append((phase, result))
        return result


def _burst(daemon: Daemon, traffic: Traffic, tally: Tally) -> float:
    """Seconds to answer one burst, from first write to last reply."""
    assert daemon.client is not None
    phase = traffic.phase(BURST_REQUESTS, None)
    return tally.add(phase, daemon.client.run(phase)).wall_s


def _probed_burst(daemon: Daemon, traffic: Traffic, tally: Tally) -> tuple[float, float]:
    """One burst bracketed by probes of the daemon's core: returns (raw,
    normalised) seconds."""
    before = probe_core(0)
    wall = _burst(daemon, traffic, tally)
    return wall, rescale(wall, [before, probe_core(0)])


def _bursts(daemon: Daemon, traffic: Traffic, tally: Tally, seconds: float) -> list[float]:
    walls: list[float] = []
    end = time.perf_counter() + seconds
    while len(walls) < 3 or time.perf_counter() < end:
        walls.append(_burst(daemon, traffic, tally))
    return walls


def _rung(daemon: Daemon, traffic: Traffic, tally: Tally, rate: float, seconds: float) -> PhaseResult:
    assert daemon.client is not None
    phase = traffic.phase(max(int(rate * seconds), 200), rate)
    return tally.add(phase, daemon.client.run(phase))


def _warm_up(daemon: Daemon, traffic: Traffic, tally: Tally, seconds: float) -> None:
    """Untimed: every bucket key once, then the reference rate for a while."""
    assert daemon.client is not None
    phase = traffic.warm_phase()
    tally.add(phase, daemon.client.run(phase))
    _rung(daemon, traffic, tally, REFERENCE_QPS, 0.1 * seconds)


def kept_pace(result: PhaseResult) -> bool:
    """Whether the generator wrote its requests on time.  When it did
    not, the host stalled the generator's core too, so the phase
    measured the host rather than the daemon."""
    return float(np.percentile(result.lag_ms, 99)) <= GENERATOR_LAG_LIMIT_MS


def rung_verdict(result: PhaseResult) -> str:
    """``pass``, ``fail`` (an error, the latency limit or a growing
    backlog) or ``invalid`` (it would fail, but the generator fell behind
    its schedule, so the failure may be the generator's).  Generator lag
    only adds to latency from due time, so a rung that passes with it
    passes."""
    lat = result.latency_ms
    if not result.failed and np.isfinite(lat).all():
        quarter = max(len(lat) // 4, 1)
        growth = float(np.median(lat[-quarter:]) - np.median(lat[:quarter]))
        if np.percentile(lat, 99) <= P99_LIMIT_MS and growth <= BACKLOG_GROWTH_MS:
            return "pass"
    return "fail" if kept_pace(result) else "invalid"


def offered_qps(phase: Phase) -> float:
    """The rate a phase's Poisson due times realise."""
    return (len(phase.due) - 1) / float(phase.due[-1] - phase.due[0])


class Ladder:
    """The search for ``capacity_qps``: the highest offered rate whose
    rung passes.

    It climbs the grid from ``start_k`` until a rung fails (stepping down
    instead while nothing has passed), then bisects between the last pass
    and the first failure.  A rung whose attempts were all invalid ends
    the climb like a failure, and the run is flagged
    ``generator_limited``: its capacity may then be a lower bound.
    ``capacity`` is the realised offered rate of the passing attempt.
    """

    def __init__(self, start_k: int) -> None:
        self.k = start_k
        self.rate: float | None = LADDER_BASE_QPS * LADDER_STEP**start_k
        self.lo: float | None = None
        self.hi: float | None = None
        self.refined = 0
        self.capacity = 0.0
        self.generator_limited = False

    def settle(self, rate: float, verdicts: list[str], offered: float) -> None:
        """Take the attempts' verdicts on ``rate`` and choose the next rate;
        ``offered`` is the realised rate of the last attempt."""
        if "pass" in verdicts:
            self.lo, self.capacity = rate, offered
        else:
            self.hi = rate
            self.generator_limited |= "fail" not in verdicts
        if self.hi is None:
            self.k += 1
            self.rate = LADDER_BASE_QPS * LADDER_STEP**self.k
        elif self.lo is None:
            self.k -= 1
            self.rate = LADDER_BASE_QPS * LADDER_STEP**self.k if self.k >= 0 else None
        elif self.refined < REFINE_STEPS:
            self.refined += 1
            self.rate = float(np.sqrt(self.lo * self.hi))
        else:
            self.rate = None


def run(seed: int, seconds: float, trace: bool, tmp_dir: str) -> dict[str, Any]:
    """One serve run; returns the JSON result ``run.py`` prints."""
    pin(os.getpid(), -1)
    tenants = make_tenants(seed)
    traffic = Traffic(seed, tenants)
    tally = Tally()
    # set-up: spawn, first ping, tenant registration -- several times,
    # keeping the last daemon for the measurement
    setups: list[tuple[float, float]] = []
    daemon: Daemon | None = None
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            if daemon is not None:
                daemon.stop()
            daemon = Daemon(tmp_dir, tenants, traced=False)
            setups.append((daemon.setup_s, daemon.normalised_setup_s))
        assert daemon is not None and daemon.client is not None
        _warm_up(daemon, traffic, tally, seconds)
        if trace:
            untraced_bursts = _bursts(daemon, traffic, tally, 0.15 * seconds)
            daemon.stop()
            daemon = Daemon(tmp_dir, tenants, traced=True)
            _warm_up(daemon, traffic, tally, seconds)
            before = (daemon.metrics(), daemon.stats())
            layers0, cpu0 = daemon.layer_dump(), daemon.cpu_s()
            reference = _rung(daemon, traffic, tally, REFERENCE_QPS, 0.4 * seconds)
            layers1, cpu1 = daemon.layer_dump(), daemon.cpu_s()
            after = (daemon.metrics(), daemon.stats())
            traced_bursts = _bursts(daemon, traffic, tally, 0.15 * seconds)
            metrics = serve_layers(before, after, reference.lag_ms)
            self_s = {k: layers1["self_s"][k] - layers0["self_s"][k] for k in layers1["self_s"]}
            calls = {k: layers1["calls"][k] - layers0["calls"][k] for k in layers1["calls"]}
            if calls["solve"] == 0:
                raise RuntimeError("the solve layer never fired on serve")
            metrics.update(
                {
                    "layers.self_s": self_s,
                    "layers.calls": calls,
                    "trace.unattributed_s": (cpu1 - cpu0) - sum(self_s.values()),
                    "trace.overhead_s": float(np.median(traced_bursts) - np.median(untraced_bursts)),
                }
            )
        else:
            # ladder rungs, reference-rate segments and bursts interleave,
            # so a slow spell of the host does not land on one phase only.
            # Segments the generator fell behind in are left out like
            # invalid rungs; the run goes on until enough are valid.
            per_rung = RUNG_FRACTION * seconds
            now = time.perf_counter()
            end, hard_end = now + 0.85 * seconds, now + 1.6 * seconds
            bursts = [_probed_burst(daemon, traffic, tally)]
            start_qps = START_FRACTION * BURST_REQUESTS / bursts[0][0]
            ladder = Ladder(max(0, int(np.log(start_qps / LADDER_BASE_QPS) / np.log(LADDER_STEP))))
            steps: list[dict[str, Any]] = []
            segments: list[PhaseResult] = []

            def valid() -> list[PhaseResult]:
                return [seg for seg in segments if kept_pace(seg)]

            while (
                ladder.rate is not None
                or time.perf_counter() < end
                or (len(valid()) < MIN_VALID_SEGMENTS and time.perf_counter() < hard_end)
            ):
                rate = ladder.rate
                if rate is not None:
                    # a rung that does not pass runs once more, and only a
                    # pass then saves it: a stall of one core can spoil an
                    # attempt, the knee spoils both
                    verdicts: list[str] = []
                    for _attempt in range(2):
                        phase = traffic.phase(max(int(rate * per_rung), 200), rate)
                        result = tally.add(phase, daemon.client.run(phase))
                        offered = offered_qps(phase)
                        verdicts.append(rung_verdict(result))
                        answered = result.answered
                        steps.append(
                            {
                                "rate_qps": rate,
                                "offered_qps": offered,
                                "verdict": verdicts[-1],
                                "p99_ms": float(np.percentile(answered, 99)) if answered.size else None,
                                "lag_p99_ms": float(np.percentile(result.lag_ms, 99)),
                            }
                        )
                        if verdicts[-1] == "pass":
                            break
                    ladder.settle(rate, verdicts, offered)
                segment = traffic.phase(REFERENCE_SEGMENT, REFERENCE_QPS)
                segments.append(tally.add(segment, daemon.client.run(segment)))
                bursts.append(_probed_burst(daemon, traffic, tally))
            kept = valid() or segments
            # p50 and p99 over every sample of the segments kept
            latencies = np.concatenate([seg.answered for seg in kept])
            metrics = {
                "bursts": [raw for raw, _ in bursts],
                "normalised_bursts": [norm for _, norm in bursts],
                "p50_ms": float(np.percentile(latencies, 50)),
                "p99_ms": float(np.percentile(latencies, 99)),
                "segment_p99_ms": [float(np.percentile(seg.answered, 99)) for seg in kept],
                "invalid_segments": len(segments) - len(kept),
                "capacity_qps": ladder.capacity,
                "generator_limited": ladder.generator_limited,
                "ladder": steps,
                "reference_samples": int(latencies.size),
            }
        metrics["peak_rss_mb"] = daemon.peak_rss_mb()
        metrics["setup_s"] = float(np.median([norm for _, norm in setups]))
        metrics["setups"] = [raw for raw, _ in setups]
        checked, bad = check_answers(tenants, tally.checked, seed)
        return {
            "metrics": metrics,
            "attempted": tally.attempted + checked,
            "failed": tally.failed + bad,
        }
    finally:
        if daemon is not None:
            daemon.stop()
