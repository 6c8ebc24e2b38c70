#!/usr/bin/env python3
"""Socketed soak for marioh_served.

Spawns the daemon on an ephemeral port, drives ~50 requests across
several concurrent TCP connections (gen / submit / wait / poll / forget
plus deliberate protocol errors), then SIGTERMs it and asserts:

  * every request got a well-formed one-line reply (ok/error, never EOF
    mid-conversation),
  * the daemon exits 0 and writes its --metrics-json snapshot, which
    parses as JSON with the counters/gauges/histograms/spans sections,
  * the service counter partition holds in that snapshot:
      marioh_jobs_accepted_total == done + failed + cancelled
          + deadline_exceeded (the *_total counters)
          + marioh_jobs_queued + marioh_jobs_running
    (all jobs terminal at shutdown, and rejected submits stay out of
    `accepted`), with every expected job accepted and every connection
    counted,
  * the same partition holds *live*, scraped from the `metrics` verb
    mid-run while worker connections are still submitting — the
    registry's collection hooks publish mutex-coherent snapshots, so
    the invariant is exact at any instant, not just at quiescence,
  * hostile input fails the request, not the daemon: before the
    traffic starts, the seeder loads an `.eg` file holding node id
    4294967295 and an `.hg` and an `.eg` file each holding the sparse
    node id 4000000000 (each must answer `error INVALID_ARGUMENT`, not
    size dense per-node arrays by the id), and a comment-only `.hg` file
    (loads fine), then submits a MARIOH job that trains on the empty one
    (must end `state=FAILED status=INVALID_ARGUMENT`),
  * an idle daemon sleeps: after the traffic, its event-loop thread (the
    main thread) makes at most IDLE_MAX_WAKEUPS voluntary context
    switches in IDLE_SECONDS (skipped where /proc is absent).

Usage: net_soak.py /path/to/marioh_served [metrics.json]

Exit status 0 on success; nonzero with a diagnostic on any failure.
No dependencies beyond the Python 3 standard library.
"""

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

from soak_client import (Client, assert_partition, fail, load_metrics_json,
                         read_banner)

CONNECTIONS = 5
JOBS_PER_CONNECTION = 3  # gen is shared; each conn submits+waits this many
IDLE_SECONDS = 1.0
IDLE_MAX_WAKEUPS = 5


def drive_connection(port, index, errors):
    try:
        client = Client(port)
        for j in range(JOBS_PER_CONNECTION):
            seed = index * 100 + j + 1
            reply = client.request(
                "submit method=MaxClique target=soak.target "
                "truth=soak.truth seed=%d" % seed)
            if not reply.startswith("ok job "):
                fail("submit rejected: %r" % reply)
            job_id = reply.split()[2]
            reply = client.request("wait " + job_id)
            if "state=DONE" not in reply:
                fail("job %s did not finish DONE: %r" % (job_id, reply))
            client.request("poll " + job_id)
            client.request("forget " + job_id)
        # Protocol errors must be answered, not fatal.
        reply = client.request("definitely-not-a-verb")
        if not reply.startswith("error "):
            fail("unknown verb not an error: %r" % reply)
        reply = client.request("quit")
        if reply != "ok bye":
            fail("quit reply: %r" % reply)
        client.close()
    except SystemExit:
        # fail() inside a worker thread only kills the thread; record it
        # so the main thread turns it into a process-level failure.
        errors.append("connection %d: assertion failed (see stderr)" % index)
    except Exception as exc:  # noqa: BLE001 - surface everything
        errors.append("connection %d: %r" % (index, exc))


def check_hostile_input(client, scratch):
    """Out-of-range and empty input files must fail their own request and
    leave the daemon serving."""
    wrapping_graph = os.path.join(scratch, "wrapping.eg")
    with open(wrapping_graph, "w") as f:
        f.write("0 1 1\n4294967295 1 1\n")
    reply = client.request("load graph hostile.wrap " + wrapping_graph)
    if not reply.startswith("error INVALID_ARGUMENT"):
        fail("node id 4294967295 not rejected: %r" % reply)

    # A sparse huge id is in range but would size the dense per-node
    # arrays by the id (hundreds of GB).
    for kind, name, text in (("hypergraph", "huge.hg", "4000000000 1\n"),
                             ("graph", "huge.eg",
                              "0 1 1\n4000000000 1 1\n")):
        path = os.path.join(scratch, name)
        with open(path, "w") as f:
            f.write(text)
        reply = client.request("load %s hostile.%s %s" % (kind, kind, path))
        if not reply.startswith("error INVALID_ARGUMENT"):
            fail("sparse node id 4000000000 in %s not rejected: %r"
                 % (name, reply))

    empty_source = os.path.join(scratch, "empty.hg")
    with open(empty_source, "w") as f:
        f.write("# no hyperedges\n")
    reply = client.request("load hypergraph hostile.empty " + empty_source)
    if not reply.startswith("ok "):
        fail("comment-only hypergraph not loaded: %r" % reply)
    reply = client.request(
        "submit method=MARIOH train=hostile.empty target=soak.target")
    if not reply.startswith("ok job "):
        fail("submit on the empty source rejected: %r" % reply)
    job_id = reply.split()[2]
    reply = client.request("wait " + job_id)
    if "state=FAILED" not in reply or "status=INVALID_ARGUMENT" not in reply:
        fail("training on an empty source did not fail cleanly: %r" % reply)
    print("net_soak: hostile input answered with errors, daemon serving")


def voluntary_switches(pid):
    """voluntary_ctxt_switches of the process's main thread."""
    with open("/proc/%d/task/%d/status" % (pid, pid)) as f:
        for line in f:
            if line.startswith("voluntary_ctxt_switches:"):
                return int(line.split()[1])
    fail("no voluntary_ctxt_switches in /proc status of pid %d" % pid)


def check_idle_loop(daemon):
    """The event loop has no timer: with no traffic, its thread sleeps in
    poll(2) and only a fd, a post or Stop wakes it."""
    if not os.path.isdir("/proc/%d" % daemon.pid):
        print("net_soak: /proc absent, idle-wakeup check skipped")
        return
    before = voluntary_switches(daemon.pid)
    time.sleep(IDLE_SECONDS)
    wakeups = voluntary_switches(daemon.pid) - before
    if wakeups > IDLE_MAX_WAKEUPS:
        fail("idle event-loop thread woke %d times in %.1fs (max %d)"
             % (wakeups, IDLE_SECONDS, IDLE_MAX_WAKEUPS))
    print("net_soak: idle event-loop thread woke %d times in %.1fs"
          % (wakeups, IDLE_SECONDS))


def main():
    if len(sys.argv) < 2:
        fail("usage: net_soak.py /path/to/marioh_served [metrics.json]")
    binary = sys.argv[1]
    metrics_path = (sys.argv[2] if len(sys.argv) > 2
                    else "net_soak_metrics.json")

    daemon = subprocess.Popen(
        [binary, "--port", "0", "--workers", "2",
         "--max-connections", "32", "--job-ttl", "600",
         "--metrics-json", metrics_path],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        port = int(read_banner(daemon)["port"])

        # One connection seeds the shared dataset for everyone.
        seeder = Client(port)
        reply = seeder.request("gen soak crime 42")
        if not reply.startswith("ok generated"):
            fail("gen failed: %r" % reply)

        with tempfile.TemporaryDirectory() as scratch:
            check_hostile_input(seeder, scratch)

        errors = []
        threads = [threading.Thread(target=drive_connection,
                                    args=(port, i, errors))
                   for i in range(CONNECTIONS)]
        for t in threads:
            t.start()
        # Scrape the metrics endpoint while the workers are mid-flight:
        # the partition must hold at any instant, not just at the end.
        live = seeder.scrape_metrics()
        assert_partition(live, "mid-run scrape")
        print("net_soak: mid-run partition holds (accepted=%d)"
              % live["marioh_jobs_accepted_total"])
        for t in threads:
            t.join()
        if errors:
            fail("; ".join(errors))

        final = seeder.scrape_metrics()
        assert_partition(final, "post-run scrape")
        if final["marioh_process_rss_bytes"] <= 0:
            fail("process RSS gauge missing from metrics scrape")
        print("net_soak: post-run scrape: accepted=%d done=%d"
              % (final["marioh_jobs_accepted_total"],
                 final["marioh_jobs_done_total"]))
        seeder.request("quit")
        seeder.close()
        check_idle_loop(daemon)

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
    accepted = snapshot["marioh_jobs_accepted_total"]
    expected_jobs = CONNECTIONS * JOBS_PER_CONNECTION
    if accepted < expected_jobs:
        fail("expected >= %d accepted jobs, snapshot says %d"
             % (expected_jobs, accepted))
    connections = snapshot["marioh_connections_total"]
    if connections < CONNECTIONS + 1:
        fail("expected >= %d connections, snapshot says %d"
             % (CONNECTIONS + 1, connections))

    print("net_soak: OK — %d jobs over %d connections, partition holds, "
          "clean shutdown (%s)" % (accepted, connections, metrics_path))


if __name__ == "__main__":
    main()
