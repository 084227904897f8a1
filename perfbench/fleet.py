"""``fleet``: read-only multi-tenant serving over TCP.

Set-up fits and saves four tenants (``tenant-0`` … ``tenant-3``) with the
``serving_d2000_q4_k13`` geometry and per-tenant seeds, starts
``python -m repro serve --models … --shards 2`` with default knobs in its
own process tree, and waits for the banner and for the shards' first
integrity-scrub pass to finish.  The tenant names are kept as they are:
CRC32 affinity places all four on one shard, and the trace shows it.

Timed window, one generator on one pipelined connection, uniform tenant
mix, in five rounds: open-loop Poisson arrivals at a fixed 1,000
requests/s (the same number of requests each round), then a closed loop
holding 64 requests in flight to find capacity.  Capacity and the median
and 90th-percentile latency at capacity come from the fifth of the
closed loops' 0.25 s slices that the host stole least CPU time from (and
any slice it stole no more from); the fixed rate sets the CPU cost per
request, and its latency is reported on the summary line only.  Nothing
is trained on the timed path.
Every answer is checked against the in-process
``load_classifier(path).predict`` oracle of its tenant.
"""

from __future__ import annotations

import asyncio
import os
import re
import selectors
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from perfbench.common import (
    ROOT,
    Result,
    Tracer,
    cpu_seconds,
    frozen_gc,
    host_steal_seconds,
    latency_from_due,
    least_stolen,
    median,
    process_tree,
    queue_wait,
    quietest_block,
    rss_mb,
    slices,
)
from perfbench.drive import WireClient, call, poisson_offsets, request_body, run_schedule


#: Four tenants on two shards; shares of ``--seconds`` spent at the fixed
#: rate and at capacity; the start of each capacity segment left out; the
#: length of the slices capacity is cut into and the share of them, the
#: least stolen (with ties), that the capacity figures come from; requests
#: per latency block (one second at the fixed rate).
N_TENANTS = 4
SHARDS = 2
OPEN_SHARE = 0.4
CAPACITY_SHARE = 0.5
CAPACITY_WARMUP_S = 0.25
SLICE_S = 0.25
QUIET_SHARE = 1 / 5
BLOCK = 1_000


@dataclass(frozen=True)
class FleetConfig:
    geometry: str = "full"
    rate: float = 1_000.0
    in_flight: int = 64
    rounds: int = 5
    setups: int = 3


FULL = FleetConfig()
SMOKE = FleetConfig(geometry="smoke", rate=200.0, in_flight=8, rounds=2, setups=1)

#: Shards count as idle once their combined CPU stays under this many
#: cores for two consecutive polls.
IDLE_CORES = 0.05
IDLE_POLL_S = 0.25


class Server:
    """``python -m repro serve`` in its own session, with ``/proc`` accounting."""

    def __init__(self, models: list[tuple[str, str]], shards: int, log_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
        )
        command = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--shards", str(shards), "--models", *(f"{t}={p}" for t, p in models),
        ]  # fmt: skip
        self._log = open(log_path, "ab")
        try:
            self.proc = subprocess.Popen(
                command,
                stdout=subprocess.PIPE,
                stderr=self._log,
                env=env,
                cwd=ROOT,
                start_new_session=True,
            )
        except OSError:
            self._log.close()
            raise
        try:
            banner = self._readline(timeout=120.0)
            match = re.search(r"serving on (\S+):(\d+)", banner)
            if match is None:
                raise RuntimeError(f"server did not start: {banner!r} (log: {log_path})")
        except BaseException:
            self.stop()
            raise
        self.host, self.port = match.group(1), int(match.group(2))

    def _readline(self, timeout: float) -> str:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(timeout):
                raise TimeoutError("no banner from the server")
        return self.proc.stdout.readline().decode(errors="replace")

    def cpu(self) -> dict[int, float]:
        return {pid: cpu_seconds(pid) for pid in process_tree(self.proc.pid)}

    def rss_mb(self) -> float:
        return sum(rss_mb(pid) for pid in process_tree(self.proc.pid))

    def wait_idle(self, timeout: float = 60.0) -> None:
        """Wait until the shards' start-up scrub pass has finished."""
        deadline = time.monotonic() + timeout
        before, quiet = self.cpu(), 0
        while quiet < 2:
            if time.monotonic() > deadline:
                raise TimeoutError("shards never went idle")
            time.sleep(IDLE_POLL_S)
            after = self.cpu()
            busy = sum(after[p] - before.get(p, 0.0) for p in after if p != self.proc.pid)
            quiet = quiet + 1 if busy < IDLE_CORES * IDLE_POLL_S else 0
            before = after

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure the whole tree is gone."""
        tree = process_tree(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.communicate()
        deadline = time.monotonic() + 30
        while any(os.path.exists(f"/proc/{pid}") for pid in tree[1:]):
            if time.monotonic() > deadline:
                for pid in tree[1:]:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            time.sleep(0.05)
        self._log.close()


def _geometry(config: FleetConfig):
    from repro.serving.loadgen import DEFAULT_SERVING_WORKLOADS

    return DEFAULT_SERVING_WORKLOADS[config.geometry]


def _fit_and_save(config: FleetConfig, seed: int, workdir) -> tuple[list, dict]:
    from repro.lookhd.classifier import LookHDClassifier, LookHDConfig
    from repro.lookhd.persistence import save_classifier

    models, pools = [], {}
    for index in range(N_TENANTS):
        tenant = f"tenant-{index}"
        workload = replace(_geometry(config), seed=seed * N_TENANTS + index)
        data = workload.make_dataset()
        clf = LookHDClassifier(
            LookHDConfig(
                dim=workload.dim,
                levels=workload.levels,
                chunk_size=workload.chunk_size,
                group_size=workload.group_size,
                decorrelate=workload.decorrelate,
                seed=workload.seed,
            )
        )
        clf.fit(data.train_features, data.train_labels)
        models.append((tenant, str(save_classifier(clf, workdir / f"{tenant}.npz"))))
        pools[tenant] = np.asarray(data.test_features, dtype=np.float64)
    return models, pools


class _Phase:
    """Answers and completion times of one phase's requests, by id."""

    def __init__(self, n: int):
        self.answers = np.full(n, -1, dtype=np.int64)
        self.done = np.zeros(n, dtype=np.float64)
        self.errors: list[dict] = []


async def _drive(server: Server, plan: dict, config: FleetConfig, seconds: float, trace: bool):
    """Alternate fixed-rate and capacity segments, ``config.rounds`` of each.

    Spreading both phases over the whole window puts the host's speed
    drift (tens of percent over tens of seconds on a shared VM) on every
    phase alike instead of on whichever phase ran last.
    """
    n_open = len(plan["bodies"])
    bodies = plan["bodies"]
    due = np.zeros(n_open)
    open_phase = _Phase(n_open)
    capacity = {"answers": {}, "errors": [], "slices": [], "sent": 0}
    state = {"outstanding": 0, "closed": False, "next": n_open, "end": 0.0, "times": []}
    sent_at: dict[int, float] = {}
    drained = asyncio.Event()
    client: WireClient

    def send_closed() -> None:
        request_id = state["next"]
        sent_at[request_id] = time.perf_counter()
        client.send(request_id, bodies[request_id % n_open])
        state["next"] += 1

    def on_response(message: dict, now: float) -> None:
        request_id = message.get("id")
        if state["closed"]:
            if "prediction" in message:
                capacity["answers"][request_id] = message["prediction"]
            else:
                capacity["errors"].append(message)
            state["times"].append((now, now - sent_at.pop(request_id)))
            if now < state["end"]:
                send_closed()
                return
        else:
            if "prediction" in message:
                open_phase.answers[request_id] = message["prediction"]
            else:
                open_phase.errors.append(message)
            open_phase.done[request_id] = now
        state["outstanding"] -= 1
        if state["outstanding"] == 0:
            drained.set()

    def fire(index: int, due_time: float) -> None:
        due[index] = due_time
        client.send(index, bodies[index])

    async def health() -> dict:
        return await call(server.host, server.port, {"op": "health"})

    client = await WireClient.connect(server.host, server.port, on_response)
    busy: dict[int, float] = {}
    probes: list[tuple[dict, dict]] = []
    lag = steal = open_wall = 0.0
    closed_s = seconds * CAPACITY_SHARE / config.rounds
    try:
        with frozen_gc():
            for first, last in plan["segments"]:
                # Fixed-rate segment.
                before = await health() if trace else None
                drained.clear()
                state["closed"], state["outstanding"] = False, last - first
                cpu_start, steal_start = server.cpu(), host_steal_seconds()
                wall_start = time.perf_counter()
                _, segment_lag = await run_schedule(
                    plan["offsets"][first:last], lambda i, t: fire(first + i, t)
                )
                await asyncio.wait_for(drained.wait(), timeout=60)
                cpu_end = server.cpu()
                steal += host_steal_seconds() - steal_start
                open_wall += time.perf_counter() - wall_start
                lag = max(lag, segment_lag)
                for pid, value in cpu_end.items():
                    busy[pid] = busy.get(pid, 0.0) + value - cpu_start.get(pid, 0.0)
                tree_rss = server.rss_mb()
                if trace:
                    probes.append((before, await health()))
                # Capacity segment: a closed loop of ``in_flight`` requests.
                drained.clear()
                state["closed"], state["outstanding"] = True, config.in_flight
                state["times"] = []
                start = time.perf_counter()
                state["end"] = start + closed_s
                for _ in range(config.in_flight):
                    send_closed()
                marks = await _steal_marks(start + CAPACITY_WARMUP_S, state["end"])
                await asyncio.wait_for(drained.wait(), timeout=60 + closed_s)
                capacity["slices"].extend(slices(marks, state["times"]))
        end_health = await health()
    finally:
        await client.close()
    capacity["sent"] = state["next"] - n_open
    quiet, quiet_s = least_stolen(capacity["slices"], QUIET_SHARE)
    return {
        "due": due,
        "open": open_phase,
        "lag": lag,
        "busy": busy,
        "rss_mb": tree_rss,
        "capacity": capacity,
        "capacity_rps": quiet.shape[0] / quiet_s,
        "capacity_ms": 1e3 * float(np.percentile(quiet, 50)),
        "capacity_p90_ms": 1e3 * float(np.percentile(quiet, 90)),
        "capacity_steal": float(np.mean([piece.steal for piece in capacity["slices"]])),
        "probes": probes,
        "end": end_health,
        "steal_share": steal / (open_wall * os.cpu_count()),
    }


async def _steal_marks(first: float, last: float) -> list[tuple[float, float]]:
    """``(time, host steal seconds)`` every ``SLICE_S`` from ``first`` until
    no whole slice fits before ``last`` (``perf_counter`` times), taken
    while responses keep flowing; a window shorter than one slice is one
    slice."""
    clock = time.perf_counter
    await asyncio.sleep(max(0.0, first - clock()))
    marks = [(clock(), host_steal_seconds())]
    while marks[-1][0] + SLICE_S <= last or len(marks) < 2:
        await asyncio.sleep(max(0.0, min(marks[-1][0] + SLICE_S, last) - clock()))
        marks.append((clock(), host_steal_seconds()))
    return marks


def _plan(config: FleetConfig, seed: int, pools: dict, seconds: float) -> dict:
    """Requests for every fixed-rate segment: Poisson due times (relative to
    each segment's start), a uniform tenant mix and pre-encoded bodies.

    Each segment holds the same number of requests, so at ``--seconds 25``
    each is exactly two latency blocks.
    """
    rng = np.random.default_rng([seed, 0xF1EE7])
    per_segment = max(1, round(config.rate * seconds * OPEN_SHARE / config.rounds))
    offsets = [poisson_offsets(per_segment, config.rate, rng) for _ in range(config.rounds)]
    segments = [(k * per_segment, (k + 1) * per_segment) for k in range(config.rounds)]
    offsets = np.concatenate(offsets)
    tenants = sorted(pools)
    tenant_index = rng.integers(0, len(tenants), size=offsets.shape[0])
    sizes = np.array([pools[tenant].shape[0] for tenant in tenants])
    row_index = rng.integers(0, sizes[tenant_index])
    bodies = [
        request_body(
            {"op": "predict", "tenant": tenants[t], "features": pools[tenants[t]][r].tolist()}
        )
        for t, r in zip(tenant_index, row_index)
    ]
    return {
        "offsets": offsets,
        "segments": segments,
        "tenants": tenants,
        "tenant_index": tenant_index,
        "row_index": row_index,
        "bodies": bodies,
    }


def _shard_blocks(health: dict) -> list[dict]:
    return [block for _, block in sorted(health["shards"].items())]


def _replay(models, plan, pools, batch: int) -> dict[str, float]:
    """In-process replay of the request set: fused predict and the service."""
    from repro.lookhd import persistence
    from repro.lookhd.classifier import LookHDClassifier
    from repro.serving.registry import ModelRegistry
    from repro.serving.service import InferenceService

    tracer = Tracer()
    tracer.wrap(persistence, "load_classifier", "lookhd.persistence.load")
    try:
        classifiers = {tenant: persistence.load_classifier(path) for tenant, path in models}
    finally:
        tracer.restore()
    for clf in classifiers.values():
        clf.warm_tables()
    tenants = plan["tenants"]
    requests = [
        (tenants[t], pools[tenants[t]][r]) for t, r in zip(plan["tenant_index"], plan["row_index"])
    ]
    by_tenant: dict[str, list] = {tenant: [] for tenant in tenants}
    for tenant, row in requests:
        by_tenant[tenant].append(row)
    start = time.perf_counter()
    for tenant, rows_ in by_tenant.items():
        stacked = np.asarray(rows_)
        for first in range(0, stacked.shape[0], batch):
            classifiers[tenant].predict(stacked[first : first + batch])
    inference_us = 1e6 * (time.perf_counter() - start) / len(requests)

    registry = ModelRegistry()
    for tenant, clf in classifiers.items():
        registry.publish(tenant, clf)

    async def through_service() -> float:
        service = InferenceService(registry=registry)
        async with service:
            pending = iter(requests)

            async def worker() -> None:
                for tenant, row in pending:
                    await service.predict(row, tenant=tenant)

            start = time.perf_counter()
            await asyncio.gather(*(worker() for _ in range(64)))
            return time.perf_counter() - start

    untraced = asyncio.run(through_service())
    owner = {id(clf): tenant for tenant, clf in classifiers.items()}
    tracer.wrap(
        InferenceService, "predict", "serving.service.predict", key=lambda a, k: k["tenant"]
    )
    tracer.wrap(LookHDClassifier, "predict", "model.predict", key=lambda a, k: owner[id(a[0])])
    try:
        traced = asyncio.run(through_service())
    finally:
        tracer.restore()
    return {
        "lookhd.persistence.load_s": tracer.total("lookhd.persistence.load"),
        "lookhd.encoder.prebound_mb": float(
            np.mean([c.encoder.prebound_bytes_held() for c in classifiers.values()]) / 2**20
        ),
        "lookhd.inference.us_per_query": inference_us,
        "serving.service.us_per_req": 1e6 * untraced / len(requests),
        "serving.service.queue_wait_ms": 1e3
        * queue_wait(tracer, "serving.service.predict", "model.predict"),
        "trace.overhead": traced / untraced,
    }


def run(seed: int, seconds: float, trace: bool, config: FleetConfig = FULL) -> Result:
    from repro.lookhd.persistence import load_classifier

    workdir = ROOT / "perfbench" / ".work" / f"fleet-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    server = None
    try:
        setup_times = []
        for _ in range(config.setups):
            if server is not None:
                server.stop()
                server = None
            start = time.perf_counter()
            models, pools = _fit_and_save(config, seed, workdir)
            server = Server(models, SHARDS, workdir / "serve.log")
            server.wait_idle()
            setup_times.append(time.perf_counter() - start)
        plan = _plan(config, seed, pools, seconds)
        measured = asyncio.run(_drive(server, plan, config, seconds, trace))
        acceptor_pid = server.proc.pid
    finally:
        if server is not None:
            server.stop()

    # Correctness: every answer equals its tenant's in-process oracle.
    oracle = {tenant: load_classifier(path).predict(pools[tenant]) for tenant, path in models}
    tenants = plan["tenants"]
    expected = np.array(
        [oracle[tenants[t]][r] for t, r in zip(plan["tenant_index"], plan["row_index"])]
    )
    n_open = expected.shape[0]
    open_phase = measured["open"]
    capacity = measured["capacity"]
    capacity_ok = all(
        answer == expected[request_id % n_open]
        for request_id, answer in capacity["answers"].items()
    )
    acceptor = measured["end"]["requests"]
    shards_end = _shard_blocks(measured["end"])
    checks = {
        "open_loop_matches_oracle": bool(np.array_equal(open_phase.answers, expected)),
        "capacity_matches_oracle": capacity_ok,
        "acceptor_dropped": acceptor["dropped"],
        "shards_dropped": sum(block["requests"]["dropped"] for block in shards_end),
        "errors": len(open_phase.errors) + len(capacity["errors"]),
    }
    failed = checks["errors"] + int(n_open - np.count_nonzero(open_phase.answers >= 0))
    correct = (
        checks["open_loop_matches_oracle"]
        and capacity_ok
        and checks["acceptor_dropped"] == 0
        and checks["shards_dropped"] == 0
        and failed == 0
    )
    attempted = n_open + capacity["sent"]

    latencies = latency_from_due(measured["due"], open_phase.done)
    busy = measured["busy"]
    cpu_per_req = 1e6 * sum(busy.values()) / n_open
    if not trace:
        metrics = {
            "setup_s": median(setup_times),
            "p50_ms": measured["capacity_ms"],
            "slow_ms": measured["capacity_p90_ms"],
            "rate_per_s": measured["capacity_rps"],
            "cpu_us_per_op": cpu_per_req,
            "rss_mb": measured["rss_mb"],
        }
    else:
        def per_shard(read) -> np.ndarray:
            """Each shard's change in ``read(block)``, summed over the
            fixed-rate segments."""
            return np.sum(
                [
                    [read(a) - read(b) for b, a in zip(_shard_blocks(x), _shard_blocks(y))]
                    for x, y in measured["probes"]
                ],
                axis=0,
            )

        completed = per_shard(lambda block: block["requests"]["completed"])
        batches = per_shard(lambda block: block["requests"]["batches"]).sum()
        first_segment = _shard_blocks(measured["probes"][0][1])
        last_segment = _shard_blocks(measured["probes"][-1][1])
        metrics = {
            "serving.acceptor.cpu_us_per_req": 1e6 * busy[acceptor_pid] / n_open,
            "serving.shard.cpu_us_per_req": 1e6
            * sum(v for pid, v in busy.items() if pid != acceptor_pid)
            / n_open,
            "serving.shard.max_share": float(completed.max() / completed.sum()),
            "serving.registry.table_mb": sum(
                tenant["table_bytes"]
                for block in last_segment
                for tenant in block["fleet"]["tenants"].values()
            )
            / 2**20,
            "serving.service.batch_mean": float(completed.sum() / batches),
            # Peaks only grow; read before the first capacity segment.
            "serving.service.peak_queue": max(
                block["requests"]["peak_queue_depth"] for block in first_segment
            ),
            "serving.acceptor.failed": acceptor["failed"],
            "serving.acceptor.retried": acceptor["retried"],
            "resilience.scrub_blocks": per_shard(
                lambda block: block["scrub"]["blocks_verified"]
            ).sum(),
            "loadgen.max_lag_ms": 1e3 * measured["lag"],
            **_replay(models, plan, pools, max(1, round(float(completed.sum()) / batches))),
        }
    shutil.rmtree(workdir, ignore_errors=True)
    summary = {
        "setup_s": (median(setup_times), "s"),
        "p50_ms": (1e3 * float(np.percentile(latencies, 50)), "ms"),
        "p99_ms": (1e3 * float(np.percentile(latencies, 99)), "ms"),
        "p50_block_ms": (1e3 * quietest_block(latencies, BLOCK, 50), "ms"),
        "p99_block_ms": (1e3 * quietest_block(latencies, BLOCK, 99), "ms"),
        "capacity_rps": (measured["capacity_rps"], "1/s"),
        "capacity_ms": (measured["capacity_ms"], "ms"),
        "capacity_p90_ms": (measured["capacity_p90_ms"], "ms"),
        "cpu_us_per_req": (cpu_per_req, "us"),
        "rss_mb": (measured["rss_mb"], "MB"),
        "requests": (n_open, "count"),
        "max_lag_ms": (1e3 * measured["lag"], "ms"),
        "host_steal_share": (measured["steal_share"], "ratio"),
        "capacity_steal_share": (measured["capacity_steal"], "ratio"),
    }
    return Result(correct, attempted, failed, metrics, summary, checks)
