"""The benchmark's four workloads, driven through the program's public APIs.

Every workload has the same shape: ``setup`` (everything before the first
timed operation), ``repetition`` (one fixed amount of work, timed),
``verify`` (checks the outputs of the repetitions run since the last call,
against properties derived from the spec text), ``finish`` (checks that
need a reference run, after the peak RSS is read) and ``teardown``.  The
``tracer`` attribute is :data:`spans.NULL_TRACER` in untraced runs.

Sizes are constants: a run repeats fixed-work repetitions, so rates are
fixed work divided by elapsed time and are never quantised by a run length.
"""

from __future__ import annotations

import http.client
import json
import random
import statistics
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from inputs import (
    MCAM_SESSIONS,
    PER_CONNECTION,
    PER_UNIT,
    expected_transfer_firings,
    scaled_transfer_text,
)
from spans import NULL_TRACER

#: transfer and mesh input: K connections x L data units.
CONNECTIONS = 8
UNITS = 200
#: a bound on rounds far above the 418 the transfer input needs.
MAX_ROUNDS = 100_000
#: sessions: live population, sessions per repetition, rounds per step.
POPULATION = 128
SESSIONS_PER_REP = 640
SLICE_ROUNDS = 4
#: the engine's thread pool; the caller drives it from one thread.
ENGINE_WORKERS = 2
#: http: keep-alive connections (one client thread each), the live
#: population per connection and sessions per connection per repetition.
HTTP_CONNECTIONS = 2
HTTP_POPULATION = 4
HTTP_SESSIONS_PER_CONNECTION = 12

#: mcam_sessions: alice places two calls and bob one, so the manager inits
#: and releases three call handlers; both participants end by ``finish``.
MCAM_CALLS = 3
MCAM_PARTICIPANTS = ("alice", "bob")


@dataclass
class Rep:
    """One timed repetition."""

    sessions: int
    firings: int
    seconds: float
    #: latency of each step operation, seconds.
    steps: List[float] = field(default_factory=list)


def transfer_cluster():
    """One two-processor machine per placement of the transfer spec."""
    from repro.sim import Cluster, Machine

    cluster = Cluster()
    cluster.add(Machine("ksr1", 2))
    cluster.add(Machine("client-ws-1", 2))
    return cluster


def transfer_mapping():
    """One execution unit per placement machine."""
    from repro.runtime import GroupedMapping

    return GroupedMapping(max_units=1)


def check_transfer_trace(firings: Sequence[Any], connections: int, units: int) -> List[str]:
    """Problems with a transfer trace, judged from the spec text alone.

    Per connection each per-unit transition fires exactly ``units`` times
    and each set-up/release transition once; each application module's last
    firing leaves it in ``done``; simulated time never decreases.
    """
    problems: List[str] = []
    counts: Counter = Counter()
    last_state: Dict[str, str] = {}
    previous_time = float("-inf")
    for event in firings:
        connection = event.module_path.rsplit("_", 1)[-1]
        counts[(connection, event.transition_name)] += 1
        last_state[event.module_path.rsplit("/", 1)[-1]] = event.state_after
        if event.time < previous_time:
            problems.append(f"simulated time fell from {previous_time} to {event.time}")
            break
        previous_time = event.time
    for c in range(1, connections + 1):
        key = f"c{c}"
        for name in PER_UNIT:
            if counts[(key, name)] != units:
                problems.append(f"{key}: {name} fired {counts[(key, name)]}x, expected {units}")
        for name in PER_CONNECTION:
            if counts[(key, name)] != 1:
                problems.append(f"{key}: {name} fired {counts[(key, name)]}x, expected 1")
        for app in (f"s_app_{key}", f"r_app_{key}"):
            if last_state.get(app) != "done":
                problems.append(f"{app} ended in {last_state.get(app)!r}, expected 'done'")
    expected = expected_transfer_firings(connections, units)
    if len(firings) != expected:
        problems.append(f"{len(firings)} firings, expected K(9L+18) = {expected}")
    return problems


class Transfer:
    """The scaled OSI transfer spec, run in-process to quiescence."""

    name = "transfer"

    def __init__(self, seed: int, tracer=NULL_TRACER) -> None:
        # The input is the same for every seed: the spec is deterministic.
        self.seed = seed
        self.tracer = tracer
        self.firings = expected_transfer_firings(CONNECTIONS, UNITS)
        self._done: List[Any] = []
        self._reference: Optional[bytes] = None
        self.source_lines = 0
        self.planner_stats: List[Any] = []

    def setup(self) -> None:
        from repro.estelle import frontend
        from repro.runtime import codegen
        from repro.runtime.planner import PlannerDispatch

        text = scaled_transfer_text(CONNECTIONS, UNITS)
        with self.tracer.span("frontend.compile_template"):
            self.template = frontend.compile_template(text, "osi_transfer_scaled.estelle")
        with self.tracer.span("codegen.compile"):
            program = codegen.compile_specification(self.template.instantiate())
        self.source_lines = len(program.source().splitlines())
        self.dispatch = PlannerDispatch()
        for artifact in program.artifacts.values():
            self.dispatch.adopt(artifact)

    def repetition(self) -> Rep:
        from repro.runtime import SpecificationExecutor

        with self.tracer.span("transfer.session"):
            started = time.perf_counter()
            executor = SpecificationExecutor(
                self.template.instantiate(),
                transfer_cluster(),
                mapping=transfer_mapping(),
                dispatch=self.dispatch,
                trace=True,
            )
            run_started = time.perf_counter()
            executor.run(max_rounds=MAX_ROUNDS)
            finished = time.perf_counter()
        self._done.append(executor)
        return Rep(1, self.firings, finished - started, [finished - run_started])

    def verify(self) -> List[str]:
        from repro.runtime.parallel.trace import canonical_trace_bytes

        problems: List[str] = []
        for executor in self._done:
            problems += check_transfer_trace(executor.trace.all_firings(), CONNECTIONS, UNITS)
            spec = executor.specification
            for c in range(1, CONNECTIONS + 1):
                sender, receiver = spec.find(f"s_app_c{c}"), spec.find(f"r_app_c{c}")
                if sender.variables.get("acked") != UNITS:
                    problems.append(f"s_app_c{c}.acked = {sender.variables.get('acked')}")
                if receiver.variables.get("received") != UNITS:
                    problems.append(f"r_app_c{c}.received = {receiver.variables.get('received')}")
            encoded = canonical_trace_bytes(executor.trace)
            if self._reference is None:
                self._reference = encoded
            elif encoded != self._reference:
                problems.append("a repetition's canonical trace differs from the first")
            self.planner_stats.append(executor.planner.stats)
        self._done.clear()
        return problems

    def finish(self) -> List[str]:
        return []

    def teardown(self) -> None:
        self._done.clear()

    def layer_metrics(self, tracer) -> Dict[str, Tuple[float, str]]:
        evaluated = sum(s.evaluated for s in self.planner_stats)
        reused = sum(s.reused for s in self.planner_stats)
        fired = self.firings * len(self.planner_stats)
        return {
            "frontend.parse_ms": (tracer.mean("frontend.parse") * 1e3, "ms"),
            "frontend.lower_ms": (
                tracer.mean("frontend.compile_template", self_time=True) * 1e3,
                "ms",
            ),
            "codegen.compile_ms": (tracer.mean("codegen.compile") * 1e3, "ms"),
            "codegen.source_lines": (self.source_lines, "count"),
            "planner.plan_us": (tracer.mean("planner.plan_round") * 1e6, "us"),
            "planner.reuse_ratio": (reused / (evaluated + reused), "ratio"),
            "executor.round_us": (tracer.mean("executor.step_round") * 1e6, "us"),
            "executor.fire_us": (
                sum(tracer.self_times("executor.step_round")) / fired * 1e6,
                "us",
            ),
        }


class Mesh:
    """The transfer input on the multiprocess backend, two workers."""

    name = "mesh"

    def __init__(self, seed: int, tracer=NULL_TRACER) -> None:
        self.seed = seed
        self.tracer = tracer
        self.firings = expected_transfer_firings(CONNECTIONS, UNITS)
        self._done: List[Any] = []
        self._digests: List[bytes] = []
        self.samples: List[Dict[str, float]] = []

    def setup(self) -> None:
        from repro.runtime import MultiprocessBackend, SpecSource

        self.text = scaled_transfer_text(CONNECTIONS, UNITS)
        self.source = SpecSource.from_estelle_text(self.text, "osi_transfer_scaled.estelle")
        self.backend = MultiprocessBackend()

    def repetition(self) -> Rep:
        from repro.obs import Observability

        obs = Observability() if self.tracer.enabled else None
        with self.tracer.span("mesh.execute"):
            started = time.perf_counter()
            result = self.backend.execute(
                self.source,
                transfer_cluster(),
                mapping=transfer_mapping(),
                dispatch="planner",
                max_rounds=MAX_ROUNDS,
                obs=obs,
            )
            elapsed = time.perf_counter() - started
        self._done.append(result)
        if obs is not None:
            sample = {
                "mesh.spawn_s": elapsed - result.wall_seconds,
                "mesh.round_us": result.wall_seconds / result.rounds * 1e6,
                "mesh.barrier_rounds": _counter(obs, "repro_parallel_barrier_rounds_total"),
            }
            for kind in ("busy", "sync"):
                family = obs.registry.get(f"repro_parallel_unit_{kind}_seconds_total")
                for labels, instrument in family.children():
                    sample[f"mesh.{kind}_s.unit{labels[0]}"] = instrument.value
            self.samples.append(sample)
        return Rep(1, self.firings, elapsed, [elapsed])

    def verify(self) -> List[str]:
        import hashlib

        from repro.runtime.parallel.trace import canonical_trace_bytes

        problems: List[str] = []
        for result in self._done:
            problems += check_transfer_trace(result.trace.all_firings(), CONNECTIONS, UNITS)
            if result.stop_reason != "quiescent":
                problems.append(f"mesh run stopped on {result.stop_reason!r}")
            self._digests.append(hashlib.sha256(canonical_trace_bytes(result.trace)).digest())
        self._done.clear()
        return problems

    def finish(self) -> List[str]:
        """Compare every run's trace with an in-process run of the same input.

        Called after the peak RSS is read, so the in-process run does not
        count towards the mesh's memory.
        """
        import hashlib

        from repro.runtime.parallel.trace import canonical_trace_bytes

        reference = hashlib.sha256(canonical_trace_bytes(self._in_process_trace())).digest()
        differing = sum(digest != reference for digest in self._digests)
        self._digests.clear()
        if differing:
            return [f"{differing} mesh canonical traces differ from the in-process run"]
        return []

    def _in_process_trace(self):
        from repro.runtime import SpecificationExecutor
        from repro.runtime.planner import PlannerDispatch

        executor = SpecificationExecutor(
            self.source.build(),
            transfer_cluster(),
            mapping=transfer_mapping(),
            dispatch=PlannerDispatch(),
            trace=True,
        )
        executor.run(max_rounds=MAX_ROUNDS)
        return executor.trace

    def teardown(self) -> None:
        self._done.clear()

    def layer_metrics(self, tracer) -> Dict[str, Tuple[float, str]]:
        units = {"mesh.spawn_s": "s", "mesh.round_us": "us", "mesh.barrier_rounds": "count"}
        return {
            name: (statistics.median(s[name] for s in self.samples), units.get(name, "s"))
            for name in self.samples[0]
        }


def _counter(obs, name: str) -> float:
    return sum(inst.value for _, inst in obs.registry.get(name).children())


def canonical_events(events: Sequence[Dict[str, Any]]) -> List[Tuple]:
    """Streamed firing records as canonical tuples."""
    from repro.runtime.parallel.trace import CANONICAL_FIELDS

    return [tuple(event[name] for name in CANONICAL_FIELDS) for event in events]


def check_session(
    health: Dict[str, Any], events: Sequence[Dict[str, Any]], reference: List[Tuple]
) -> List[str]:
    """Problems with one finished mcam_sessions session."""
    problems: List[str] = []
    if not health.get("quiescent"):
        problems.append(f"session stopped on {health.get('stop_reason')!r}")
    fired = Counter(
        (event["module_path"].rsplit("/", 1)[-1], event["transition_name"]) for event in events
    )
    for participant in MCAM_PARTICIPANTS:
        if fired[(participant, "finish")] != 1:
            problems.append(f"{participant} did not end satisfied")
    created = fired[("mgr", "accept_1")] + fired[("mgr", "accept_2")]
    released = fired[("mgr", "close_1")] + fired[("mgr", "close_2")]
    if created != MCAM_CALLS or released != MCAM_CALLS:
        problems.append(f"{created} call handlers created, {released} released")
    if canonical_events(events) != reference:
        problems.append("session trace differs from a session run alone")
    return problems


class Sessions:
    """A steady population of mcam_sessions sessions on a SessionEngine."""

    name = "sessions"

    def __init__(self, seed: int, tracer=NULL_TRACER) -> None:
        self.seed = seed
        self.tracer = tracer
        self.rng = random.Random(seed)
        self._done: List[Tuple[Dict[str, Any], List[Dict[str, Any]]]] = []
        self.firings_per_session = 0

    def setup(self) -> None:
        from repro.runtime import SpecSource
        from repro.serve.engine import SessionEngine

        self.text = MCAM_SESSIONS.read_text()
        self.source = SpecSource.from_estelle_text(self.text, MCAM_SESSIONS.name)
        self.engine = SessionEngine(workers=ENGINE_WORKERS)
        # The reference: one session alone in the fresh engine.  It also
        # compiles the spec, so the timed sessions find it in the registry.
        sid = self.engine.create_session(self.source)
        self.engine.step(sid, rounds=MAX_ROUNDS)
        events, _ = self.engine.stream_firings(sid, since=0)
        self.engine.close_session(sid)
        self.reference = canonical_events(events)
        self.firings_per_session = len(events)

    def repetition(self) -> Rep:
        engine, span, rng = self.engine, self.tracer.span, self.rng
        live: deque = deque()
        steps: List[float] = []
        created = 0

        def spawn() -> None:
            with span("serve.create"):
                sid = engine.create_session(self.source)
            # Staggered first slices keep completions from arriving in waves.
            live.append((sid, rng.randint(1, SLICE_ROUNDS)))

        started = time.perf_counter()
        while created < POPULATION:
            spawn()
            created += 1
        while live:
            sid, rounds = live.popleft()
            step_started = time.perf_counter()
            with span("serve.step"):
                health = engine.step(sid, rounds=rounds)
            steps.append(time.perf_counter() - step_started)
            if not health["quiescent"]:
                live.append((sid, SLICE_ROUNDS))
                continue
            with span("serve.stream"):
                events, _ = engine.stream_firings(sid, since=0)
            with span("serve.close"):
                engine.close_session(sid)
            self._done.append((health, events))
            if created < SESSIONS_PER_REP:
                spawn()
                created += 1
        elapsed = time.perf_counter() - started
        return Rep(
            SESSIONS_PER_REP, SESSIONS_PER_REP * self.firings_per_session, elapsed, steps
        )

    def verify(self) -> List[str]:
        problems: List[str] = []
        for health, events in self._done:
            problems += check_session(health, events, self.reference)
        self._done.clear()
        return problems

    def finish(self) -> List[str]:
        return []

    def teardown(self) -> None:
        engine = getattr(self, "engine", None)
        if engine is not None:
            engine.shutdown()

    def layer_metrics(self, tracer) -> Dict[str, Tuple[float, str]]:
        return {
            "frontend.instantiate_us": (tracer.mean("frontend.instantiate") * 1e6, "us"),
            "planner.program_us": (tracer.mean("planner.program") * 1e6, "us"),
            "executor.construct_us": (tracer.mean("executor.construct") * 1e6, "us"),
            "registry.get_us": (tracer.mean("registry.get") * 1e6, "us"),
            "serve.create_us": (tracer.mean("serve.create") * 1e6, "us"),
            "serve.step_us": (tracer.mean("serve.step") * 1e6, "us"),
            "serve.stream_us": (tracer.mean("serve.stream") * 1e6, "us"),
            "serve.close_us": (tracer.mean("serve.close") * 1e6, "us"),
        }


class HttpError(RuntimeError):
    """The HTTP front answered a benchmark request with an error status."""


class Http:
    """The session life cycle through the HTTP/1.1 front, served in-process."""

    name = "http"

    def __init__(self, seed: int, tracer=NULL_TRACER) -> None:
        self.seed = seed
        self.tracer = tracer
        self.rngs = [random.Random(seed * HTTP_CONNECTIONS + i) for i in range(HTTP_CONNECTIONS)]
        self.servers: List[Any] = []
        self.server_thread: Optional[threading.Thread] = None
        self.connections: List[http.client.HTTPConnection] = []
        self._done: List[Tuple[Dict[str, Any], List[Dict[str, Any]]]] = []
        self.firings_per_session = 0

    def setup(self) -> None:
        from repro.runtime import SpecSource
        from repro.serve.api import make_http_server
        from repro.serve.engine import SessionEngine

        self.text = MCAM_SESSIONS.read_text()
        self.engine = SessionEngine(workers=ENGINE_WORKERS)
        # Reference and warm-up: one session alone, in-process, in the fresh
        # engine the server fronts.
        source = SpecSource.from_estelle_text(self.text, MCAM_SESSIONS.name)
        sid = self.engine.create_session(source)
        self.engine.step(sid, rounds=MAX_ROUNDS)
        events, _ = self.engine.stream_firings(sid, since=0)
        self.engine.close_session(sid)
        self.reference = canonical_events(events)
        self.firings_per_session = len(events)
        self.server = make_http_server(engine=self.engine)
        self.servers.append(self.server)
        self.server_thread = self.server.serve_in_background()
        for _ in range(HTTP_CONNECTIONS):
            connection = http.client.HTTPConnection("127.0.0.1", self.server.port, timeout=60)
            connection.connect()
            self.connections.append(connection)

    def _request(self, connection, method: str, path: str, payload=None) -> Dict[str, Any]:
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        with self.tracer.span("http.request"):
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            data = response.read()
        if response.status not in (200, 201):
            raise HttpError(f"{method} {path} -> {response.status}: {data[:200]!r}")
        return json.loads(data)

    def _drive(self, index: int, out: Dict[str, Any]) -> None:
        connection, rng = self.connections[index], self.rngs[index]
        live: deque = deque()
        steps: List[float] = []
        done: List[Tuple[Dict[str, Any], List[Dict[str, Any]]]] = []
        created = 0
        create_payload = {"spec_text": self.text, "filename": MCAM_SESSIONS.name}

        def spawn() -> None:
            sid = self._request(connection, "POST", "/sessions", create_payload)["session_id"]
            live.append((sid, rng.randint(1, SLICE_ROUNDS)))

        try:
            while created < HTTP_POPULATION:
                spawn()
                created += 1
            while live:
                sid, rounds = live.popleft()
                step_started = time.perf_counter()
                health = self._request(
                    connection, "POST", f"/sessions/{sid}/step", {"rounds": rounds}
                )
                steps.append(time.perf_counter() - step_started)
                if not health["quiescent"]:
                    live.append((sid, SLICE_ROUNDS))
                    continue
                events = self._request(connection, "GET", f"/sessions/{sid}/firings?since=0")
                self._request(connection, "DELETE", f"/sessions/{sid}")
                done.append((health, events["events"]))
                if created < HTTP_SESSIONS_PER_CONNECTION:
                    spawn()
                    created += 1
        except Exception as exc:  # handed to the main thread, re-raised there
            out["error"] = exc
        out["steps"], out["done"] = steps, done

    def repetition(self) -> Rep:
        outs: List[Dict[str, Any]] = [{} for _ in range(HTTP_CONNECTIONS)]
        threads = [
            threading.Thread(target=self._drive, args=(i, outs[i]), name=f"bench-client-{i}")
            for i in range(HTTP_CONNECTIONS)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        for out in outs:
            if "error" in out:
                raise out["error"]
        steps = [latency for out in outs for latency in out["steps"]]
        for out in outs:
            self._done += out["done"]
        sessions = HTTP_CONNECTIONS * HTTP_SESSIONS_PER_CONNECTION
        return Rep(sessions, sessions * self.firings_per_session, elapsed, steps)

    def verify(self) -> List[str]:
        problems: List[str] = []
        for health, events in self._done:
            problems += check_session(health, events, self.reference)
        self._done.clear()
        return problems

    def finish(self) -> List[str]:
        return []

    def teardown(self) -> None:
        for connection in self.connections:
            connection.close()
        if self.server_thread is not None:
            self.server.shutdown()
            self.server_thread.join(timeout=10)
        for server in self.servers:
            server.server_close()
        engine = getattr(self, "engine", None)
        if engine is not None:
            engine.shutdown()

    def layer_metrics(self, tracer) -> Dict[str, Tuple[float, str]]:
        api = tracer.mean("http.api")
        return {
            "http.api_us": (api * 1e6, "us"),
            "http.ingress_ms": ((tracer.mean("http.request") - api) * 1e3, "ms"),
        }


WORKLOADS = {cls.name: cls for cls in (Transfer, Mesh, Sessions, Http)}
