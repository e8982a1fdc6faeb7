#!/usr/bin/env python3
"""Check a JSONL protocol trace against the H-RMC invariants.

Usage:
    trace_dump | check_trace.py [--bound SECONDS]
                                [--no-release] [--no-nak] [--no-rate]
                                [--no-progress] [--mem-budget BYTES]
    check_trace.py trace.jsonl

An independent (stdlib-only) implementation of the same five
invariants src/trace/verify.cpp checks, numbered the same way, over the
JSONL stream trace_dump (or trace::write_jsonl) emits:

  1. Release safety: the sender never releases a byte some armed,
     live receiver has not reported holding.
  2. NAK liveness: every NAK range is answered by an overlapping
     retransmission / NAK_ERR (or mooted by the receiver's own
     progress) within --bound seconds of its first emission.
  3. Rate conformance: a token bucket fed at the advertised rate never
     goes negative past the pacing slack, and no new data is sent
     while an urgent stop is in force.
  4. Monotone progress: a receiver's reported stream position only
     moves forward between re-anchors (a "resync" after crash-restart
     resets the baseline; link flaps and stall re-JOINs do not), and
     the sender's release head never regresses at all.  Regression on
     either side is silent state drift — exactly the corruption a
     restart or a flap-window race would introduce.
  5. Budget safety (--mem-budget BYTES, DESIGN.md §16): every
     alloc_fail / cache_evict record carries the emitting host's memory
     ledger (live bytes) in its value field; none may exceed the
     per-host budget.  The accountant enforces this by construction, so
     a violation means some consumer bypassed try_charge or forgot an
     uncharge.  Off by default (budget 0).

Running both implementations over one trace in CI cross-checks them;
they were written from the record-semantics table in DESIGN.md, not
from each other.
"""

import argparse
import json
import sys

M = 1 << 32
HALF = 1 << 31
JIFFY_S = 0.01
RECEIVER_HOST_MAX = 900

# kJoined flag bit: the host joined a local repairer (trace.hpp's
# kFlagAggregated) — its feedback is aggregated into subtree AGG_UPDATEs.
FLAG_AGGREGATED = 2


def sdiff(a, b):
    """Signed modular distance a - b (kern::seq_diff)."""
    d = (a - b) % M
    return d - M if d >= HALF else d


def before(a, b):
    return sdiff(a, b) < 0


def before_eq(a, b):
    return sdiff(a, b) <= 0


def smin(a, b):
    return a if before(a, b) else b


def smax(a, b):
    return b if before(a, b) else a


class Checker:
    def __init__(self, bound_ns, check_release, check_nak, check_rate,
                 check_progress=True, mem_budget=0):
        self.bound_ns = bound_ns
        self.check_release = check_release
        self.check_nak = check_nak
        self.check_rate = check_rate
        self.check_progress = check_progress
        self.mem_budget = mem_budget
        self.violations = []
        self.releases = self.naks = self.sends = 0
        self.progress_checks = 0
        self.mem_checks = 0

        self.rcv = {}  # host -> [armed, exempt, high]
        self.addr_to_host = {}
        self.pending = []  # [host, from, to, first_emit]
        self.release_high = None  # sender release head (monotone forever)

        self.primed = False
        self.tokens = 0.0
        self.last_adv = 0.0
        self.last_send_t = 0
        self.stop_until = 0

    def violate(self, r, what):
        self.violations.append(
            "t={} host={} {}: {}".format(r["t"], r["host"], r["kind"], what))

    def state(self, host):
        # [armed, exempt, high, aggregated]; aggregated = joined a local
        # repairer, so release safety is carried by the repairer's
        # AGG_UPDATE subtree minimum, not this host's own reports.
        return self.rcv.setdefault(host, [False, False, 0, False])

    def note_coverage(self, r, reported):
        s = self.state(r["host"])
        if not s[0]:
            return
        if before(s[2], reported):
            s[2] = reported
        elif self.check_progress and before(reported, s[2]):
            # Receiver counters are monotone between re-anchors: only a
            # "resync" (crash-restart) may move the baseline, never a
            # link flap or a stall re-JOIN.
            self.violate(r, "reported position {} regressed behind the "
                         "high-water {}".format(reported, s[2]))
        if self.check_progress:
            self.progress_checks += 1
        self.clear_below(r["host"], reported)

    # --- invariant 2 ---

    def add_pending(self, r):
        frm, to, first = r["seq_begin"], r["seq_end"], r["t"]
        merged = []
        for p in self.pending:
            if p[0] == r["host"] and not (before(to, p[1]) or
                                          before(p[2], frm)):
                frm = smin(frm, p[1])
                to = smax(to, p[2])
                first = min(first, p[3])
            else:
                merged.append(p)
        merged.append([r["host"], frm, to, first])
        self.pending = merged
        self.naks += 1

    def answer(self, r, frm, to):
        keep = []
        for p in self.pending:
            if before_eq(to, p[1]) or before_eq(p[2], frm):
                keep.append(p)
                continue
            if r["t"] - p[3] > self.bound_ns:
                self.violate(r, "NAK from host {} for [{},{}) answered "
                             "{} ns after first emission".format(
                                 p[0], p[1], p[2], r["t"] - p[3]))
            if before(p[1], frm):
                keep.append([p[0], p[1], frm, p[3]])
            if before(to, p[2]):
                keep.append([p[0], to, p[2], p[3]])
        self.pending = keep

    def clear_below(self, host, reported):
        keep = []
        for p in self.pending:
            if p[0] == host and not before_eq(reported, p[1]):
                p[1] = smin(reported, p[2])
                if not before(p[1], p[2]):
                    continue
            keep.append(p)
        self.pending = keep

    def fill(self, host, frm, to):
        out = []
        for p in self.pending:
            if p[0] != host or before_eq(to, p[1]) or before_eq(p[2], frm):
                out.append(p)
                continue
            left = [p[0], p[1], smin(frm, p[2]), p[3]]
            right = [p[0], smax(to, p[1]), p[2], p[3]]
            if before(left[1], left[2]):
                out.append(left)
            if before(right[1], right[2]):
                out.append(right)
        self.pending = out

    def drop_host(self, host):
        self.pending = [p for p in self.pending if p[0] != host]

    # --- invariant 3 ---

    @staticmethod
    def burst_cap(rate):
        return 2.0 * rate * JIFFY_S + 8.0 * 1500.0

    def account_send(self, r):
        self.sends += 1
        adv = float(r["value"])
        nbytes = float(sdiff(r["seq_end"], r["seq_begin"]))
        if not self.primed:
            self.primed = True
            self.tokens = self.burst_cap(adv)
        else:
            dt = (r["t"] - self.last_send_t) / 1e9
            rate = max(self.last_adv, adv)
            self.tokens = min(self.tokens + rate * dt, self.burst_cap(rate))
        self.last_send_t = r["t"]
        self.last_adv = adv
        self.tokens -= nbytes
        if self.tokens < -1e-6:
            self.violate(r, "sent {:.0f} bytes with only {:.0f} byte-tokens "
                         "at advertised rate {:.0f}".format(
                             nbytes, self.tokens + nbytes, adv))
            self.tokens = 0.0
        if r["kind"] == "send" and r["t"] < self.stop_until:
            self.violate(r, "new data sent during urgent stop (until "
                         "{})".format(self.stop_until))

    # --- dispatch ---

    def step(self, r):
        k = r["kind"]
        host = r["host"]
        if k == "joined":
            s = self.state(host)
            s[0], s[1], s[2] = True, False, r["seq_begin"]
            s[3] = bool(r.get("flags", 0) & FLAG_AGGREGATED)
            self.addr_to_host[r["value"]] = host
        elif k == "resync":
            s = self.state(host)
            s[1], s[2] = False, r["seq_begin"]
            if self.check_nak:
                self.drop_host(host)
        elif k == "resync_join":
            self.state(host)[1] = True
        elif k in ("update", "rate_request", "nak_suppress",
                   "nak_peer_suppress"):
            self.note_coverage(r, r["seq_begin"])
        elif k == "agg_update":
            # Aggregated subtree UPDATE: seq_begin is the minimum over
            # the represented leaves, so it is raise-only coverage for
            # the emitter — a lower aggregate than the emitter's own
            # high-water is a laggard child registering, not counter
            # drift, so the monotonicity check does not apply.
            s = self.state(r["host"])
            if s[0] and before(s[2], r["seq_begin"]):
                s[2] = r["seq_begin"]
            self.clear_below(r["host"], r["seq_begin"])
        elif k in ("nak", "nak_forward"):
            # A forwarded child NAK binds the sender exactly like a leaf
            # NAK: the repairer could not serve it locally.
            self.note_coverage(r, r["value"] % M)
            if self.check_nak:
                self.add_pending(r)
        elif k == "ooo_insert":
            if self.check_nak:
                self.fill(host, r["seq_begin"], r["seq_end"])
        elif k == "fec_repair":
            # A parity reconstruction buffers the missing packet like an
            # arriving retransmission: pending NAKs it covers are moot,
            # and the position advance reaches release safety through
            # the receiver's ordinary coverage reports.
            if self.check_nak:
                self.fill(host, r["seq_begin"], r["seq_end"])
        elif k == "fec_decode_fail":
            # Informational: the group falls back to the NAK path.
            pass
        elif k == "down":
            if 1 <= host < RECEIVER_HOST_MAX:
                self.state(host)[1] = True
                if self.check_nak:
                    self.drop_host(host)
        elif k == "up":
            if 1 <= host < RECEIVER_HOST_MAX:
                self.state(host)[1] = False
        elif k == "rejoin":
            # Stalled-data re-JOIN: the receiver keeps its stream
            # position, so neither the coverage baseline nor the
            # pending-NAK set resets — monotonicity holds across it.
            pass
        elif k == "leave":
            # Clean departure: the host stops counting against release
            # safety and its outstanding NAKs are moot.
            self.state(host)[1] = True
            if self.check_nak:
                self.drop_host(host)
        elif k in ("evict", "dead_release"):
            h = self.addr_to_host.get(r["value"])
            if h is not None:
                self.state(h)[1] = True
        elif k == "retransmit":
            if self.check_nak:
                self.answer(r, r["seq_begin"], r["seq_end"])
            if self.check_rate:
                self.account_send(r)
        elif k == "repair_tx":
            # Local repair answers the child's NAK but spends no
            # sender-rate tokens (it never crosses the paced uplink).
            if self.check_nak:
                self.answer(r, r["seq_begin"], r["seq_end"])
        elif k == "nak_err":
            if self.check_nak:
                self.answer(r, r["seq_begin"], r["seq_end"])
        elif k == "send":
            if self.check_rate:
                self.account_send(r)
        elif k == "urgent_stop":
            self.stop_until = max(self.stop_until, r["value"])
        elif k in ("alloc_fail", "cache_evict"):
            # value = emitting host's ledger live bytes, aux = the
            # MemComponent charged/evicted.
            if self.mem_budget > 0:
                self.mem_checks += 1
                if r["value"] > self.mem_budget:
                    self.violate(r, "ledger live {} bytes exceeds the "
                                 "per-host budget {} (component {})".format(
                                     r["value"], self.mem_budget,
                                     r.get("aux", 0)))
        elif k == "release":
            if self.check_progress:
                # The sender never re-anchors: its release head is
                # monotone across every restart, flap, and churn event
                # in the trace — regression is counter drift.
                self.progress_checks += 1
                if (self.release_high is not None and
                        before(r["seq_end"], self.release_high)):
                    self.violate(r, "release head {} regressed behind "
                                 "{}".format(r["seq_end"],
                                             self.release_high))
                if (self.release_high is None or
                        before(self.release_high, r["seq_end"])):
                    self.release_high = r["seq_end"]
            if self.check_release:
                self.releases += 1
                for h, s in self.rcv.items():
                    if s[0] and not s[1] and not s[3] and \
                            before(s[2], r["seq_end"]):
                        self.violate(r, "released through {} but host {} "
                                     "only reported {}".format(
                                         r["seq_end"], h, s[2]))

    def finish(self, end_t):
        if not self.check_nak:
            return
        for p in self.pending:
            if end_t - p[3] > self.bound_ns:
                self.violations.append(
                    "trace end: NAK from host {} for [{},{}) first emitted "
                    "at t={} never answered".format(p[0], p[1], p[2], p[3]))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("trace", nargs="?", help="JSONL trace (default stdin)")
    ap.add_argument("--bound", type=float, default=2.0,
                    help="NAK answer bound in seconds (default 2)")
    ap.add_argument("--no-release", action="store_true")
    ap.add_argument("--no-nak", action="store_true")
    ap.add_argument("--no-rate", action="store_true")
    ap.add_argument("--no-progress", action="store_true")
    ap.add_argument("--mem-budget", type=int, default=0,
                    help="per-host memory budget in bytes for invariant 5"
                         " (default 0 = skip)")
    args = ap.parse_args()

    c = Checker(int(args.bound * 1e9), not args.no_release,
                not args.no_nak, not args.no_rate,
                not args.no_progress, args.mem_budget)
    stream = open(args.trace, encoding="utf-8") if args.trace else sys.stdin
    n = 0
    last_t = 0
    with stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            r = json.loads(line)
            last_t = r["t"]
            c.step(r)
            n += 1
    if n:
        c.finish(last_t)

    print("check_trace: {} records, {} releases / {} naks / {} sends / "
          "{} progress / {} mem checked, {} violations".format(
              n, c.releases, c.naks, c.sends, c.progress_checks,
              c.mem_checks, len(c.violations)))
    for v in c.violations[:32]:
        print("violation: " + v, file=sys.stderr)
    return 1 if c.violations else 0


if __name__ == "__main__":
    sys.exit(main())
