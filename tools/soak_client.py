"""Shared pieces of the marioh_served soaks (net_soak.py, chaos_soak.py).

A line-protocol TCP client with a `metrics` scraper, the daemon banner
parser, a loader for the daemon's --metrics-json shutdown snapshot, and
the counter-partition check. Scrapes and snapshots both come back as
{series: value}, keyed like the Prometheus exposition (`name` or
`name{labels}`), so every assertion reads the same metric registry
whichever surface it came from.

No dependencies beyond the Python 3 standard library.
"""

import json
import os
import socket
import sys


def fail(message):
    """Prints `<soak>: FAIL: message` and exits 1 (only the calling
    thread, when called off the main thread)."""
    name = os.path.splitext(os.path.basename(sys.argv[0]))[0]
    print("%s: FAIL: %s" % (name, message), file=sys.stderr)
    sys.exit(1)


class Client:
    """One line-protocol conversation over a fresh TCP connection."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=120)
        self.buf = b""
        self.requests = 0
        self.greeting = self.read_line()
        if not self.greeting.startswith("ok marioh_served client=conn-"):
            fail("bad greeting: %r" % self.greeting)

    def read_line(self):
        while b"\n" not in self.buf:
            chunk = self.sock.recv(4096)
            if not chunk:
                fail("connection closed mid-conversation")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()

    def request(self, line):
        self.sock.sendall((line + "\n").encode())
        self.requests += 1
        reply = self.read_line()
        if not (reply.startswith("ok ") or reply.startswith("error ")):
            fail("malformed reply to %r: %r" % (line, reply))
        return reply

    def close(self):
        self.sock.close()

    def scrape_metrics(self):
        """Scrapes the `metrics` verb: reads the `ok metrics lines=N`
        header, then exactly N Prometheus text lines, and returns
        {series_signature: float} (comment lines skipped)."""
        reply = self.request("metrics")
        if not reply.startswith("ok metrics lines="):
            fail("bad metrics header: %r" % reply)
        count = int(reply.split("lines=", 1)[1])
        series = {}
        for _ in range(count):
            line = self.read_line()
            if line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            series[name] = float(value)
        return series


def read_banner(daemon):
    """Reads the daemon's startup banner (`ok marioh_served port=P ...`)
    and returns its key=value fields."""
    banner = daemon.stdout.readline().strip()
    fields = dict(f.split("=", 1) for f in banner.split()[2:] if "=" in f)
    if not banner.startswith("ok marioh_served") or "port" not in fields:
        fail("bad banner: %r" % banner)
    return fields


def load_metrics_json(path):
    """Loads a --metrics-json snapshot and returns its counters and
    gauges as {series_signature: value}, after checking it has every
    section (counters, gauges, histograms, spans)."""
    if not os.path.exists(path):
        fail("daemon exited without writing %s" % path)
    with open(path) as f:
        snapshot = json.load(f)
    for section in ("counters", "gauges", "histograms", "spans"):
        if section not in snapshot:
            fail("metrics snapshot %s missing %r section" % (path, section))
    series = {}
    for metric in snapshot["counters"] + snapshot["gauges"]:
        name = metric["name"]
        if metric.get("labels"):
            name += "{" + metric["labels"] + "}"
        series[name] = metric["value"]
    return series


def assert_partition(series, where):
    """accepted == terminals + queued + running, exactly (counters are
    integers, so float equality is exact)."""
    terminal = (series["marioh_jobs_done_total"] +
                series["marioh_jobs_failed_total"] +
                series["marioh_jobs_cancelled_total"] +
                series["marioh_jobs_deadline_exceeded_total"] +
                series["marioh_jobs_queued"] +
                series["marioh_jobs_running"])
    if series["marioh_jobs_accepted_total"] != terminal:
        fail("%s: partition violated: accepted=%s vs sum=%s"
             % (where, series["marioh_jobs_accepted_total"], terminal))
