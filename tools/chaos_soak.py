#!/usr/bin/env python3
"""Chaos soak for marioh_served: net_soak under rotating fault injection.

Spawns the daemon with failpoint administration enabled, a fixed
MARIOH_FAILPOINTS_SEED (so a failing schedule replays exactly), and the
job watchdog armed, then drives four phases of traffic over concurrent
TCP connections while rotating the failpoint schedule between them:

  A  retry storm      session.reconstruct=error|p=0.3 while every client
                      submits with retries=4 — jobs must end DONE (the
                      retry path healed them) or, rarely, FAILED with the
                      transient status (retries exhausted: *accounted*,
                      not crashed).
  B  wire storm       net.read=error|p=0.2,net.write=short|p=0.2 —
                      simulated EAGAIN and 1-byte short writes; every
                      request must still complete exactly once.
  C  wedged job       session.reconstruct=delay:30000|count=1 — the
                      watchdog must detect the frozen heartbeat and
                      cancel the job within its bounded latency instead
                      of the 30 s stall.
  D  recovery         failpoints off — the same daemon, with faults
                      cleared, serves plain traffic flawlessly again.

A fifth phase exercises durability past process death on a fresh daemon
pair sharing one --journal-dir:

  E  kill-mid-load    a 1-worker daemon serves a few jobs to DONE, then
                      wedges its worker on a 30 s delay failpoint,
                      accepts a backlog of jobs, cancels one queued job
                      of it, and is SIGKILLed — no destructor, no flush.
                      Only the accepts and the CANCELLED terminal were
                      fsynced; the attempt markers and the DONE terminals
                      were only written, which SIGKILL cannot lose. A
                      second daemon on the same journal dir must report
                      exactly the wedged backlog recovered (banner
                      recovered=N, marioh_jobs_recovered_total=N in the
                      `metrics` scrape and --metrics-json), run each to
                      DONE under its ORIGINAL job id, never bring back a
                      DONE or CANCELLED job, and keep the counter
                      partition exact: zero accepted jobs lost.

Then SIGTERMs the daemon and asserts from its --metrics-json snapshot:

  * >= 200 requests served across >= 6 connections, zero crashes
    (marioh_lines_served_total, marioh_connections_total),
  * the service counter partition holds:
      marioh_jobs_accepted_total == done + failed + cancelled
          + deadline_exceeded (the *_total counters)
          + marioh_jobs_queued + marioh_jobs_running
  * the fault machinery actually engaged: marioh_faults_injected_total
    > 0, marioh_jobs_retried_total > 0, marioh_jobs_stalled_total >= 1,
  * clean exit 0.

Between phases the harness also scrapes the `metrics` verb and asserts
the same partition holds *live* from the Prometheus exposition — chaos
must never produce even a transiently incoherent counter snapshot.

Usage: chaos_soak.py /path/to/marioh_served [metrics.json]

Phase E's second daemon writes its snapshot to metrics.json.recovery.

Exit status 0 on success; nonzero with a diagnostic on any failure.
No dependencies beyond the Python 3 standard library.
"""

import os
import shutil
import signal
import subprocess
import sys
import threading
import time

from soak_client import (Client, assert_partition, fail, load_metrics_json,
                         read_banner)

CONNECTIONS = 8          # concurrent clients per phase (>= 6 required)
JOBS_PHASE_A = 5         # retry-storm jobs per connection
JOBS_PHASE_B = 3         # wire-storm jobs per connection
JOBS_PHASE_D = 2         # recovery jobs per connection
JOBS_PHASE_E = 6         # backlog accepted, then SIGKILLed mid-load
DONE_PHASE_E = 3         # served to DONE before the wedge
FAILPOINT_SEED = "427"   # fixed: a failing run replays bit-for-bit
STALL_TIMEOUT = 1.0      # watchdog budget for phase C (seconds)


def assert_live_partition(client, where):
    """Scrapes the metrics endpoint and asserts the counter partition
    holds at this instant — mid-chaos, not just at shutdown."""
    series = client.scrape_metrics()
    assert_partition(series, where)
    print("chaos_soak: %s: live partition holds (accepted=%d, "
          "faults_injected=%d)"
          % (where, series["marioh_jobs_accepted_total"],
             series["marioh_faults_injected_total"]))


class Tally:
    """Thread-safe request / outcome accounting across worker threads."""

    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.done = 0
        self.failed_unavailable = 0


def submit_and_wait(client, tally, submit_line, allow_exhausted):
    reply = client.request(submit_line)
    if not reply.startswith("ok job "):
        fail("submit rejected: %r" % reply)
    job_id = reply.split()[2]
    reply = client.request("wait " + job_id)
    if "state=DONE" in reply:
        with tally.lock:
            tally.done += 1
    elif allow_exhausted and "state=FAILED" in reply and "UNAVAILABLE" in reply:
        # Retries exhausted under an unlucky p= draw sequence: the job
        # failed *cleanly*, carrying its transient status — that is the
        # accounting contract, not a soak failure.
        with tally.lock:
            tally.failed_unavailable += 1
    else:
        fail("job %s bad terminal reply: %r" % (job_id, reply))
    client.request("poll " + job_id)
    client.request("forget " + job_id)


def drive(port, index, tally, errors, jobs, submit_suffix, allow_exhausted):
    try:
        client = Client(port)
        for j in range(jobs):
            seed = index * 1000 + j + 1
            submit_and_wait(
                client, tally,
                "submit method=MaxClique target=soak.target "
                "truth=soak.truth seed=%d%s" % (seed, submit_suffix),
                allow_exhausted)
        # Protocol errors stay answered mid-chaos, never fatal.
        reply = client.request("definitely-not-a-verb")
        if not reply.startswith("error "):
            fail("unknown verb not an error: %r" % reply)
        reply = client.request("quit")
        if reply != "ok bye":
            fail("quit reply: %r" % reply)
        with tally.lock:
            tally.requests += client.requests
        client.close()
    except SystemExit:
        # fail() inside a worker thread only kills the thread; record it
        # so the main thread turns it into a process-level failure.
        errors.append("connection %d: assertion failed (see stderr)" % index)
    except Exception as exc:  # noqa: BLE001 - surface everything
        errors.append("connection %d: %r" % (index, exc))


def run_phase(name, port, tally, jobs, submit_suffix="",
              allow_exhausted=False):
    print("chaos_soak: phase %s: %d connections x %d jobs%s"
          % (name, CONNECTIONS, jobs,
             " " + submit_suffix if submit_suffix else ""))
    errors = []
    threads = [threading.Thread(target=drive,
                                args=(port, i, tally, errors, jobs,
                                      submit_suffix, allow_exhausted))
               for i in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        fail("phase %s: %s" % (name, "; ".join(errors)))


def run_kill_phase(binary, metrics_path):
    """Phase E: SIGKILL a journaling daemon mid-load; its successor on the
    same journal dir must lose zero accepted jobs and bring back no
    finished one."""
    journal_dir = metrics_path + ".journal"
    shutil.rmtree(journal_dir, ignore_errors=True)
    wedged = JOBS_PHASE_E - 1  # the backlog less the one cancelled job
    print("chaos_soak: phase E (kill-mid-load): %d jobs DONE, %d accepted, "
          "1 cancelled, then SIGKILL" % (DONE_PHASE_E, JOBS_PHASE_E))

    # Daemon A: one worker. It serves a few jobs to DONE, then wedges on a
    # 30 s delay and accepts a backlog, one of which is cancelled while
    # queued. Every `ok job N` reply and the cancel's reply are preceded
    # by an fsynced journal append; the attempt markers and DONE
    # terminals are written without an fsync. The SIGKILL below — no
    # destructor, no flush — must lose none of them.
    daemon = subprocess.Popen(
        [binary, "--port", "0", "--workers", "1",
         "--journal-dir", journal_dir, "--allow-failpoint-admin"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    ids = []
    finished = []
    try:
        port = int(read_banner(daemon)["port"])
        admin = Client(port)
        reply = admin.request("gen soak crime 42")
        if not reply.startswith("ok generated"):
            fail("phase E gen failed: %r" % reply)
        for s in range(DONE_PHASE_E):
            reply = admin.request(
                "submit method=MaxClique target=soak.target "
                "truth=soak.truth seed=%d client=finisher" % (s + 1))
            if not reply.startswith("ok job "):
                fail("phase E submit rejected: %r" % reply)
            finished.append(reply.split()[2])
            reply = admin.request("wait " + finished[-1])
            if "state=DONE" not in reply:
                fail("phase E job %s did not finish before the wedge: %r"
                     % (finished[-1], reply))
        reply = admin.request("failpoints session.reconstruct=delay:30000")
        if not reply.startswith("ok failpoints"):
            fail("phase E failpoint admin rejected: %r" % reply)
        for s in range(JOBS_PHASE_E):
            reply = admin.request(
                "submit method=MaxClique target=soak.target "
                "truth=soak.truth seed=%d client=survivor" % (s + 1))
            if not reply.startswith("ok job "):
                fail("phase E submit rejected: %r" % reply)
            ids.append(reply.split()[2])
        # The last job queues behind the wedged first one on the only
        # worker, so this cancel journals a terminal CANCELLED.
        cancelled = ids.pop()
        reply = admin.request("cancel " + cancelled)
        if reply != "ok cancel " + cancelled:
            fail("phase E cancel of queued job %s: %r" % (cancelled, reply))
        finished.append(cancelled)
    finally:
        daemon.kill()  # SIGKILL: the worker dies mid-delay, queue and all
        daemon.wait()

    # Daemon B: same journal dir, no faults. The dataset comes back via
    # the datasets.manifest gen recipe, then every accepted-but-unfinished
    # job is re-admitted under its original id.
    daemon = subprocess.Popen(
        [binary, "--port", "0", "--workers", "2",
         "--journal-dir", journal_dir, "--metrics-json", metrics_path],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        fields = read_banner(daemon)
        if fields.get("recovered") != str(wedged):
            fail("phase E banner recovered=%s; expected %d (ids %s)"
                 % (fields.get("recovered"), wedged, ids))
        port = int(fields["port"])
        client = Client(port)
        for job_id in ids:
            reply = client.request("wait " + job_id)
            if "state=DONE" not in reply:
                fail("phase E recovered job %s did not finish: %r"
                     % (job_id, reply))
        # A DONE or CANCELLED key is closed: its job must not come back.
        for job_id in finished:
            reply = client.request("poll " + job_id)
            if not reply.startswith("error NOT_FOUND"):
                fail("phase E finished job %s came back: %r"
                     % (job_id, reply))
        recovered = client.scrape_metrics()["marioh_jobs_recovered_total"]
        if recovered != wedged:
            fail("phase E metrics jobs_recovered=%s; expected %d"
                 % (recovered, wedged))
        client.request("quit")
        client.close()

        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=60)
        except subprocess.TimeoutExpired:
            daemon.kill()
            fail("phase E daemon did not exit within 60s of SIGTERM")
        if daemon.returncode != 0:
            fail("phase E daemon exit status %d" % daemon.returncode)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()

    snapshot = load_metrics_json(metrics_path)
    assert_partition(snapshot, "phase E snapshot")
    if snapshot["marioh_jobs_recovered_total"] != wedged:
        fail("phase E snapshot jobs_recovered=%d; expected %d"
             % (snapshot["marioh_jobs_recovered_total"], wedged))
    if snapshot["marioh_jobs_done_total"] < wedged:
        fail("phase E snapshot done=%d < %d recovered jobs"
             % (snapshot["marioh_jobs_done_total"], wedged))
    shutil.rmtree(journal_dir, ignore_errors=True)
    print("chaos_soak: phase E: OK — %d jobs survived SIGKILL, zero lost, "
          "all DONE under original ids, %d finished jobs stayed closed, "
          "partition holds" % (wedged, len(finished)))


def main():
    if len(sys.argv) < 2:
        fail("usage: chaos_soak.py /path/to/marioh_served [metrics.json]")
    binary = sys.argv[1]
    metrics_path = (sys.argv[2] if len(sys.argv) > 2
                    else "chaos_soak_metrics.json")

    env = dict(os.environ)
    env["MARIOH_FAILPOINTS_SEED"] = FAILPOINT_SEED
    daemon = subprocess.Popen(
        [binary, "--port", "0", "--workers", "2",
         "--max-connections", "32", "--job-ttl", "600",
         "--stall-timeout", str(STALL_TIMEOUT),
         "--allow-failpoint-admin",
         "--metrics-json", metrics_path],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)
    try:
        port = int(read_banner(daemon)["port"])

        # The admin connection seeds the shared dataset and rotates the
        # failpoint schedule between phases.
        admin = Client(port)
        tally = Tally()
        reply = admin.request("gen soak crime 42")
        if not reply.startswith("ok generated"):
            fail("gen failed: %r" % reply)

        # Phase A: transient reconstruct failures, healed by retries.
        reply = admin.request("failpoints session.reconstruct=error|p=0.3")
        if not reply.startswith("ok failpoints"):
            fail("failpoint admin rejected: %r" % reply)
        run_phase("A (retry storm)", port, tally, JOBS_PHASE_A,
                  " retries=4 backoff=0.01", allow_exhausted=True)
        assert_live_partition(admin, "after phase A")

        # Phase B: the wire itself misbehaves — injected EAGAIN on reads,
        # 1-byte short writes — yet every request completes exactly once.
        # (`failpoints` merges specs, so phase A's point is cleared first.)
        admin.request("failpoints off")
        reply = admin.request(
            "failpoints net.read=error|p=0.2,net.write=short|p=0.2")
        if not reply.startswith("ok failpoints"):
            fail("failpoint admin rejected: %r" % reply)
        run_phase("B (wire storm)", port, tally, JOBS_PHASE_B)
        admin.request("failpoints off")
        assert_live_partition(admin, "after phase B")

        # Phase C: one wedged job; the watchdog must cut the 30 s stall
        # down to ~stall_timeout.
        reply = admin.request(
            "failpoints session.reconstruct=delay:30000|count=1")
        if not reply.startswith("ok failpoints"):
            fail("failpoint admin rejected: %r" % reply)
        wedge = Client(port)
        t0 = time.monotonic()
        reply = wedge.request("submit method=MaxClique target=soak.target")
        if not reply.startswith("ok job "):
            fail("wedge submit rejected: %r" % reply)
        wedge_id = reply.split()[2]
        reply = wedge.request("wait " + wedge_id)
        elapsed = time.monotonic() - t0
        if "state=CANCELLED" not in reply or "stalled" not in reply:
            fail("wedged job not watchdog-cancelled: %r" % reply)
        if elapsed > 10 * STALL_TIMEOUT:
            fail("watchdog took %.1fs to cancel a %.1fs-stall-timeout job"
                 % (elapsed, STALL_TIMEOUT))
        print("chaos_soak: phase C (wedge): cancelled after %.2fs" % elapsed)
        wedge.request("quit")
        with tally.lock:
            tally.requests += wedge.requests
        wedge.close()

        # Phase D: faults cleared — the survivor serves plain traffic.
        admin.request("failpoints off")
        run_phase("D (recovery)", port, tally, JOBS_PHASE_D)
        assert_live_partition(admin, "after phase D")

        admin.request("quit")
        with tally.lock:
            tally.requests += admin.requests
        admin.close()

        total_requests = tally.requests
        if total_requests < 200:
            fail("only %d requests driven; need >= 200" % total_requests)

        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=60)
        except subprocess.TimeoutExpired:
            daemon.kill()
            fail("daemon did not exit within 60s of SIGTERM")
        if daemon.returncode != 0:
            fail("daemon exit status %d" % daemon.returncode)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()

    snapshot = load_metrics_json(metrics_path)
    assert_partition(snapshot, "shutdown snapshot")
    faults = snapshot["marioh_faults_injected_total"]
    retried = snapshot["marioh_jobs_retried_total"]
    stalled = snapshot["marioh_jobs_stalled_total"]
    connections = snapshot["marioh_connections_total"]
    if faults <= 0:
        fail("no faults were injected — the chaos schedule never engaged")
    if retried <= 0:
        fail("no retries recorded despite the phase-A error storm")
    if stalled < 1:
        fail("the phase-C wedge was never declared stalled")
    if connections < 6:
        fail("expected >= 6 connections, snapshot says %d" % connections)
    if snapshot["marioh_lines_served_total"] < 200:
        fail("daemon served %d lines; harness drove %d requests"
             % (snapshot["marioh_lines_served_total"], total_requests))

    print("chaos_soak: phases A-D OK — %d requests over %d connections, "
          "%d faults injected, %d retries (%d jobs healed, %d exhausted "
          "cleanly), %d stall cancelled, partition holds, clean shutdown "
          "(%s)"
          % (total_requests, connections, faults, retried, tally.done,
             tally.failed_unavailable, stalled, metrics_path))

    run_kill_phase(binary, metrics_path + ".recovery")
    print("chaos_soak: OK — all phases passed")


if __name__ == "__main__":
    main()
