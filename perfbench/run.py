"""The repo benchmark: one command, four workloads, every metric by name.

Run from the repository root::

    python3 perfbench/run.py --workload ring_solve --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace
1`` prints the per-layer metrics of a traced run.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
human-readable report and the host record.  The exit code is 1 when an
output check failed, 3 when an open loop fell behind its schedule (its
latencies are not reported), and 2 when the program cannot be found.

Each workload's program runs in processes of its own: the serving daemon
through ``python3 -m repro.serve.cli serve`` (the ``repro-serve serve``
entry point), the library and the simulator through ``driver.py``.
README.md in this directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import platform
import selectors
import signal
import socket
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import procgroup

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("ring_solve", "serve_miss", "serve_zipf", "sim_churn")

#: The program is launched this many times per run and ``setup_s`` is the
#: median; only the last launch does the measured work.
SETUP_LAUNCHES = 5

#: Per-op latency limit behind ``slo_met_frac``, per workload (ms).
SLO_MS = {"ring_solve": 10000.0, "sim_churn": 5000.0,
          "serve_miss": 50.0, "serve_zipf": 50.0}

#: Serve traffic.  ``rate`` is the open-loop request rate: about half the
#: closed-loop capacity of serve_miss, a sixth of serve_zipf's, and low
#: enough that two misses never share a flush unless a solve stalls.
#: ``warmup`` is the requests sent before any clock starts, and
#: ``closed_pool`` the requests built for the closed loop, per second of
#: it: about ten times what serve_miss gets through today and three times
#: serve_zipf's, so that a much faster daemon still runs most of the phase.
SERVE = {
    "serve_miss": {"rate": 40.0, "warmup": 40, "closed_pool": 800},
    "serve_zipf": {"rate": 50.0, "warmup": 800, "closed_pool": 1000},
}
#: Share of ``--seconds`` given to the open loop; the closed loop gets the
#: rest.  The open loop's latency percentiles need the samples more.
OPEN_SHARE = 0.6
#: Load connections (never more than ``nproc``) and in-flight requests per
#: connection in the closed loop.
CONNECTIONS = 2
DEPTH = 4
#: An open loop is invalid when the generator sent its 99th-percentile
#: request later than this, or when more than ``BACKLOG_S`` seconds' worth
#: of requests were still unanswered when the schedule ended.
LATE_LIMIT_MS = 20.0
BACKLOG_S = 0.25

#: ``runtime.supervised_map_ms`` probe repetitions.
MAP_PROBES = 8


class InvalidRun(Exception):
    """The run measured something other than what it claims to."""


# -- host record and statistics ---------------------------------------------

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def host_record() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": nproc(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


#: ``latency_tail_ms`` never reads a lower percentile than this.
TAIL_FLOOR = 0.875


def tail(values: list) -> tuple[float, float, int]:
    """``(value, percentile, samples)``: the highest percentile with at least
    ten samples beyond it, but never below ``TAIL_FLOOR``.

    Under 80 samples the floor decides.  ``ring_solve`` runs a few dozen
    ops in a fixed cycle of sizes; there the ten-beyond rank would
    fall near the median and cross from one size to the next as the
    program speeds up, while p87.5 stays inside the slowest size.
    """
    xs = sorted(values)
    k = max(len(xs) - 11, math.ceil(TAIL_FLOOR * len(xs)) - 1)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- process handling --------------------------------------------------------

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill what is left of ``proc``'s process group, then reap ``proc``."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def _launch(argv: list) -> subprocess.Popen:
    return subprocess.Popen(argv, stdout=subprocess.PIPE, env=_env(), cwd=ROOT,
                            start_new_session=True)


# -- library workloads -------------------------------------------------------

def _driver_ready(argv: list) -> tuple[subprocess.Popen, float]:
    t0 = perf_counter()
    proc = _launch(argv)
    line = proc.stdout.readline()
    if line.strip() != b"ready":
        _kill_group(proc)
        raise RuntimeError(f"driver did not start: {line!r}")
    return proc, perf_counter() - t0


def run_library(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    argv = [sys.executable, str(HERE / "driver.py"), workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        argv.append("--trace")
    setups = []
    for _ in range(SETUP_LAUNCHES - 1):
        proc, t = _driver_ready(argv + ["--setup-only"])
        setups.append(t)
        try:
            proc.communicate(timeout=60)
        finally:
            _kill_group(proc)
    proc, t = _driver_ready(argv)
    setups.append(t)
    try:
        out, _ = proc.communicate(timeout=150)
    finally:
        _kill_group(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited with {proc.returncode}")
    raw = json.loads(out.decode().strip().splitlines()[-1])
    return {"raw": raw, "setup_s": setups}


def library_end_to_end(workload: str, run: dict) -> dict:
    ph = run["raw"]["untraced"]
    lat_ms = [x * 1000 for x in ph["latency_s"]]
    value, pct, count = tail(lat_ms)
    slo = sum(1 for x, ok in zip(lat_ms, ph["ok"]) if ok and x <= SLO_MS[workload])
    return {
        "setup_s": statistics.median(run["setup_s"]),
        "ops_per_s": ph["ops"] / ph["elapsed_s"],
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": value,
        "slo_met_frac": slo / ph["ops"],
        "ok_frac": sum(ph["ok"]) / ph["ops"],
        "cpu_ms_per_op": 1000 * (ph["cpu_self_s"] + ph["cpu_workers_s"]) / ph["ops"],
        "peak_rss_mb": run["raw"]["peak_rss_kb"] / 1024,
        "_tail": (pct, count),
    }


def _spans(snapshot: dict, leaf: str) -> tuple[int, float, float]:
    """``(count, total_s, self_s)`` over span paths ending in ``leaf``."""
    n = total = own = 0
    for path, s in snapshot.items():
        if path == leaf or path.endswith("/" + leaf):
            n += s["count"]
            total += s["total_s"]
            own += s["self_s"]
    return n, total, own


def _mean_ms(snapshot: dict, *leaves: str) -> float:
    n = total = 0
    for leaf in leaves:
        c, t, _ = _spans(snapshot, leaf)
        n, total = n + c, total + t
    return 1000 * ratio(total, n)


def _counter_layers(c: dict, ops: int) -> dict:
    """Per-op engine counters, shared by every workload."""
    return {
        "core.dinkelbach_iters": ratio(c["dinkelbach_iterations"], ops),
        "flow.calls": ratio(c["flow_calls"], ops),
        "flow.template_hit_frac": ratio(
            c["template_hits"], c["template_hits"] + c["template_builds"]),
        "core.decompositions": ratio(c["decompositions"], ops),
        "core.incremental.warm_starts": ratio(c["warm_starts"], ops),
        "core.incremental.reconstructions": ratio(c["decomp_reconstructions"], ops),
        "core.incremental.fallbacks": ratio(c["reconstruction_fallbacks"], ops),
        "engine.cache_hit_frac": ratio(
            c["cache_hits"], c["cache_hits"] + c["cache_misses"]),
    }


def _core_span_layers(spans: dict, ops: int, decompose: tuple,
                      exact: str, allocate: str) -> dict:
    return {
        "core.decompose_ms": _mean_ms(spans, *decompose),
        "core.exact_decompose_ms": _mean_ms(spans, exact) if exact else 0.0,
        "core.dinkelbach_self_ms": 1000 * ratio(_spans(spans, "dinkelbach")[2], ops),
        "flow.self_ms": 1000 * ratio(_spans(spans, "flow")[2], ops),
        "core.allocate_ms": _mean_ms(spans, allocate),
    }


def library_per_layer(workload: str, run: dict) -> dict:
    raw = run["raw"]
    ph, base = raw["traced"], raw["untraced"]
    ops, stats = ph["ops"], ph["stats"]
    spans = stats["spans"]
    out = _counter_layers(stats, ops)
    if workload == "ring_solve":
        out.update(_core_span_layers(
            spans, ops, ("bench.decompose", "bench.decompose_exact"),
            "bench.decompose_exact", "bench.allocate"))
    else:
        out.update(_core_span_layers(spans, ops, ("decompose",), "", "allocate"))
        attacks_s = _spans(spans, "sim/attacks")[1]
        out.update({
            "sim.run_ms": _mean_ms(spans, "bench.run_scenario"),
            "sim.churn_ms": _mean_ms(spans, "sim/churn"),
            "sim.attacks_ms": _mean_ms(spans, "sim/attacks"),
            "attack.cells": ratio(stats["sim_attacks"], ops),
            "runtime.worker_busy_frac": ratio(
                ph["cpu_workers_s"], attacks_s * ph["procs"]),
        })
    out["trace.overhead_frac"] = 1.0 - ratio(
        ph["ops"] / ph["elapsed_s"], base["ops"] / base["elapsed_s"])
    return out


# -- serve workloads ---------------------------------------------------------

class Daemon:
    """``repro-serve serve`` in its default configuration, in a process
    group of its own so that no shard worker can outlive the run."""

    def __init__(self) -> None:
        t0 = perf_counter()
        self.proc = _launch([sys.executable, "-m", "repro.serve.cli", "serve",
                             "--port", "0"])
        try:
            banner = self.proc.stdout.readline().decode()
            if not banner.startswith("repro-serve listening on "):
                raise RuntimeError(f"daemon did not start: {banner!r}")
            self.port = int(banner.split()[3].rsplit(":", 1)[1])
            self._ping()
        except BaseException:
            _kill_group(self.proc)
            raise
        self.setup_s = perf_counter() - t0

    def _call(self, op: str) -> dict:
        with socket.create_connection(("127.0.0.1", self.port), timeout=30) as s:
            s.sendall(json.dumps({"op": op}).encode() + b"\n")
            return json.loads(s.makefile("rb").readline())

    def _ping(self) -> None:
        if self._call("ping").get("status") != "ok":
            raise RuntimeError("daemon did not answer ping")

    def stop(self) -> None:
        """``shutdown`` op, then kill the group and reap the daemon."""
        try:
            if self.proc.poll() is None:
                self._call("shutdown")
                self.proc.wait(timeout=30)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            pass
        finally:
            _kill_group(self.proc)
            self.proc.stdout.close()


def _delta(after: dict, before: dict) -> dict:
    """Counter and span deltas between two ``stats`` results."""
    out = {k: v - before.get(k, 0) for k, v in after.items()
           if isinstance(v, int) and not isinstance(v, bool)}
    spans = {}
    for path, s in after["spans"].items():
        b = before["spans"].get(path, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        spans[path] = {k: s[k] - b[k] for k in ("count", "total_s", "self_s")}
    out["spans"] = spans
    return out


async def _drive(port: int, lines: dict, cfg: dict, seconds: float,
                 daemon: Daemon) -> dict:
    from loadgen import close_all, closed_loop, connect_all, open_loop, rpc

    conns = await connect_all(port, min(CONNECTIONS, nproc()))
    try:
        warm = await closed_loop(conns, lines["warm"], DEPTH, math.inf)
        s0 = (await rpc(conns[0], {"op": "stats"}))["result"]
        cpu0 = procgroup.cpu_s(daemon.proc.pid)
        opened = await open_loop(conns, lines["open"], cfg["rate"])
        closed = await closed_loop(conns, lines["closed"], DEPTH,
                                   seconds * (1 - OPEN_SHARE))
        cpu1 = procgroup.cpu_s(daemon.proc.pid)
        s1 = (await rpc(conns[0], {"op": "stats"}))["result"]
        peak_kb = procgroup.peak_kb(daemon.proc.pid)
    finally:
        await close_all(conns)
    return {"warm": warm, "open": opened, "closed": closed, "before": s0,
            "after": s1, "cpu": (cpu1[0] - cpu0[0], cpu1[1] - cpu0[1]),
            "peak_rss_kb": peak_kb}


def _check_responses(phase, offset: int, expected: dict) -> list:
    """``(request index, problem)`` for each bad response of one phase
    (``offset`` = index of its first request)."""
    problems = []
    for j in range(phase.issued):
        k = offset + j
        resp = json.loads(phase.raw[j])
        if resp.get("id") != k:
            problems.append((k, f"answered with id {resp.get('id')!r}"))
        elif resp.get("status") != "ok":
            problems.append((k, f"{resp.get('error')}"))
        elif k in expected and resp["result"] != expected[k]:
            problems.append((k, "differs from single_shot_response"))
    return problems


def run_serve(workload: str, seed: int, seconds: float) -> dict:
    from inputs import serve_requests
    from repro.serve import single_shot_response

    cfg = SERVE[workload]
    n_open = int(cfg["rate"] * seconds * OPEN_SHARE)
    n_closed = int(cfg["closed_pool"] * seconds * (1 - OPEN_SHARE))
    requests = serve_requests(workload, seed, cfg["warmup"] + n_open + n_closed)
    expected = {k: single_shot_response(g)
                for k, (g, _line, audited) in enumerate(requests) if audited}
    lines = [line for _g, line, _a in requests]
    # The inputs live for the whole run: keep the collector from scanning
    # them while the clock runs, which would delay receive timestamps.
    gc.collect()
    gc.freeze()
    bounds = {"warm": (0, cfg["warmup"]),
              "open": (cfg["warmup"], cfg["warmup"] + n_open),
              "closed": (cfg["warmup"] + n_open, len(lines))}
    parts = {name: lines[a:b] for name, (a, b) in bounds.items()}

    setups = []
    for _ in range(SETUP_LAUNCHES - 1):
        d = Daemon()
        setups.append(d.setup_s)
        d.stop()
    daemon = Daemon()
    setups.append(daemon.setup_s)
    try:
        # select(2) takes a microsecond timeout where epoll rounds up to
        # whole milliseconds, so the open loop sends on time.
        loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
        try:
            res = loop.run_until_complete(
                _drive(daemon.port, parts, cfg, seconds, daemon))
        finally:
            loop.close()
    finally:
        daemon.stop()
    res["setup_s"] = setups

    bad = [p for name in ("warm", "open", "closed")
           for p in _check_responses(res[name], bounds[name][0], expected)]
    res["bad"] = {k for k, _ in bad}
    problems = [f"request {k}: {msg}" for k, msg in bad]
    after = res["after"]
    if workload == "serve_miss" and (after["serve_cache_hits"] or after["serve_coalesced"]):
        problems.append(
            f"serve_miss made {after['serve_cache_hits']} cache hits and "
            f"{after['serve_coalesced']} coalesced requests; every request "
            "must miss")
    res["problems"] = problems
    res["attempted"] = sum(res[name].issued for name in ("warm", "open", "closed"))
    end = bounds["closed"][0] + res["closed"].issued
    res["audited"] = sum(1 for k in expected if k < end)
    res["requests"] = requests
    res["bounds"] = bounds
    return res


def open_loop_validity(workload: str, res: dict) -> dict:
    ph = res["open"]
    late = sorted(1000 * (ph.sent[k] - ph.due[k]) for k in range(ph.issued))
    late_p99 = late[min(len(late) - 1, int(0.99 * len(late)))]
    limit = max(4, int(SERVE[workload]["rate"] * BACKLOG_S))
    if late_p99 > LATE_LIMIT_MS or ph.backlog_end > limit:
        raise InvalidRun(
            f"open loop invalid: generator p99 lateness {late_p99:.2f} ms "
            f"(limit {LATE_LIMIT_MS}), backlog at end {ph.backlog_end} "
            f"(limit {limit})")
    return {"loadgen.late_p99_ms": late_p99,
            "loadgen.backlog_end": float(ph.backlog_end)}


def serve_end_to_end(workload: str, res: dict) -> dict:
    ph = res["open"]
    lat = [1000 * (ph.done[k] - ph.due[k]) for k in range(ph.issued)]
    first = res["bounds"]["open"][0]
    slo = sum(1 for j, x in enumerate(lat)
              if x <= SLO_MS[workload] and first + j not in res["bad"])
    value, pct, count = tail(lat)
    closed = res["closed"]
    served = ph.issued + closed.issued
    return {
        "setup_s": statistics.median(res["setup_s"]),
        "ops_per_s": ratio(closed.issued, closed.end - closed.start),
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": value,
        "slo_met_frac": slo / ph.issued,
        "ok_frac": 1.0 - len(res["problems"]) / res["attempted"],
        "cpu_ms_per_op": 1000 * sum(res["cpu"]) / served,
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
        "_tail": (pct, count),
    }


def _probe_serve(res: dict, mean_batch: float) -> dict:
    """Time the daemon's own public pieces in this process, after the
    daemon has stopped: canonicalisation of the workload's request lines,
    one worker cell, and one supervised map of the observed batch size."""
    from repro import EngineSpec
    from repro.runtime import RuntimePolicy, supervised_map
    from repro.serve import canonical_request, solve_cell
    from repro.analysis.parallel import _context_for

    lo, hi = res["bounds"]["open"]
    payloads = [json.loads(line)["graph"]
                for _g, line, _a in res["requests"][lo:hi]]
    t0 = perf_counter()
    canon = [canonical_request(p) for p in payloads]
    canon_us = 1e6 * (perf_counter() - t0) / len(payloads)
    unique = list({key: d for key, _order, d in canon}.values())

    spec = EngineSpec(trace=True, tag="perfbench-probe")
    cells = unique[:len(unique) // 2]
    t0 = perf_counter()
    for d in cells:
        solve_cell((spec, d))
    solve_ms = 1000 * (perf_counter() - t0) / len(cells)
    spans = _context_for(spec).stats()["spans"]

    size = max(1, math.ceil(mean_batch))
    rest = unique[len(cells):]
    policy = RuntimePolicy(retries=2)
    times = []
    for i in range(MAP_PROBES):
        items = [(EngineSpec(), d) for d in rest[i * size:(i + 1) * size]]
        t0 = perf_counter()
        supervised_map(solve_cell, items, processes=1, policy=policy)
        times.append(1000 * (perf_counter() - t0))
    return {"canonical_us": canon_us, "solve_ms": solve_ms,
            "map_ms": statistics.median(times), "spans": spans,
            "cells": len(cells)}


def serve_per_layer(res: dict) -> dict:
    d = _delta(res["after"], res["before"])
    reqs = d["serve_requests"]
    batches = d["serve_batches"]
    mean_batch = ratio(d["serve_cache_misses"], batches)
    probe = _probe_serve(res, mean_batch)
    flush_n, flush_s, _ = _spans(d["spans"], "serve/dispatch")
    wall = sum(res[name].end - res[name].start for name in ("open", "closed"))
    shards = res["after"]["serve_config"]["shards"]
    out = _counter_layers(d, reqs)
    out.update(_core_span_layers(probe["spans"], probe["cells"], ("decompose",),
                                 "", "allocate"))
    out.update({
        "runtime.worker_busy_frac": ratio(res["cpu"][1], wall * shards),
        "serve.flush_ms": 1000 * ratio(flush_s, flush_n),
        "serve.batches_per_kreq": 1000 * ratio(batches, reqs),
        "serve.batch_size_mean": mean_batch,
        "serve.cache_hit_frac": ratio(d["serve_cache_hits"], reqs),
        "serve.coalesced_frac": ratio(d["serve_coalesced"], reqs),
        "serve.queue_peak_depth": float(res["after"]["admission"]["peak_depth"]),
        "serve.shed_frac": ratio(d["serve_shed"], reqs),
        "runtime.worker_respawns": float(d["worker_respawns"]),
        "serve.daemon_cpu_ms_per_req": 1000 * ratio(res["cpu"][0], reqs),
        "serve.worker_cpu_ms_per_req": 1000 * ratio(res["cpu"][1], reqs),
        "serve.canonical_request_us": probe["canonical_us"],
        "serve.solve_cell_ms": probe["solve_ms"],
        "runtime.supervised_map_ms": probe["map_ms"],
    })
    return out


# -- metric table and entry point -------------------------------------------

def load_metric_table() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="the repo benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # SIGTERM unwinds like an exception, so the finally blocks still stop
    # the program's process groups.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    end_to_end_units, per_layer_units = load_metric_table()
    host = host_record()
    wl, trace = args.workload, bool(args.trace)
    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(f"workload {wl}, seed {args.seed}, {args.seconds:g} s, "
          f"{'traced' if trace else 'untraced'}")

    try:
        if wl.startswith("serve_"):
            res = run_serve(wl, args.seed, args.seconds)
            validity = open_loop_validity(wl, res)
            attempted, problems = res["attempted"], res["problems"]
            print(f"requests: {attempted} checked, {res['audited']} compared "
                  f"with single_shot_response")
            if trace:
                metrics = serve_per_layer(res)
                metrics.update(validity)
            else:
                metrics = serve_end_to_end(wl, res)
        else:
            run = run_library(wl, args.seed, args.seconds, trace)
            phases = [run["raw"][k] for k in ("untraced", "traced") if k in run["raw"]]
            attempted = sum(ph["ops"] for ph in phases)
            problems = [m for ph in phases for m in ph["problems"]]
            if trace:
                metrics = library_per_layer(wl, run)
            else:
                metrics = library_end_to_end(wl, run)
    except InvalidRun as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    units = per_layer_units if trace else end_to_end_units
    if not trace:
        pct, count = metrics.pop("_tail")
        print(f"latency_tail_ms is p{pct:.2f} of {count} samples")
    for name in units:
        metrics.setdefault(name, 0.0)
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:14.6g} {unit}")
    failed = len(problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
