//! The flow table's reassembly bookkeeping against a naive twin.
//!
//! [`FlowTable`] keeps every open reassembly buffer in one index by
//! opening order, and drops an entry wherever its buffer goes: a finish, an
//! idle eviction, a replacement, a [`FlowTable::shed`] (DESIGN.md §8.3).
//! Its twin here is a `Vec` of the flows holding a buffer, oldest opened
//! first, and a map of flows searched by brute force. Seeded runs of
//! segments, finishes, idle evictions and sheds under tiny caps go through
//! both, on four client ports, so a 5-tuple comes back after its flow was
//! concluded, shed or evicted; after every step the table must hold the
//! same keys in the same order, the same byte total, the same count of
//! abandoned buffers and the same flows. The run counts the events that
//! make it bite and fails if any stayed at zero.

use bytes::Bytes;
use hostprof_net::{Endpoint, FlowKey, FlowTable, Packet, Transport};
use proptest::test_runner::TestRng;
use std::collections::HashMap;

/// Idle timeout of the table under test: a few steps' worth of time.
const IDLE_MS: u64 = 40;

fn below(rng: &mut TestRng, n: u64) -> u64 {
    rng.uniform_u64(0, n - 1)
}

fn packet(t_ms: u64, port: u16, len: usize) -> Packet {
    Packet {
        t_ms,
        src: Endpoint::new(0x0a00_0001, port),
        dst: Endpoint::new(0x0a00_0002, 443),
        transport: Transport::Tcp,
        payload: Bytes::from(vec![0u8; len]),
    }
}

fn key(port: u16) -> FlowKey {
    FlowKey::of(&packet(0, port, 0))
}

/// A buffer as the twin sees it: `(bytes, segments, first segment time)`.
type Buf = (usize, u32, u64);

#[derive(Default)]
struct TwinFlow {
    last_seen_ms: u64,
    done: bool,
    buf: Option<Buf>,
}

/// What the table should hold, written the slow way.
#[derive(Default)]
struct Twin {
    flows: HashMap<u16, TwinFlow>,
    /// Ports of the flows holding a buffer, oldest opened first.
    open: Vec<u16>,
    evicted: u64,
    since_evict: u64,
    /// Ports whose last buffer was shed or idled out, until the port is
    /// inspected again.
    abandoned: [bool; 5],
}

/// How often each event happened across the run.
#[derive(Debug, Default)]
struct Seen {
    appended: u64,
    replaced: u64,
    finished_open: u64,
    shed: u64,
    shed_spared_keep: u64,
    idle_evicted_open: u64,
    reused_after_abandon: u64,
    amortized_evictions: u64,
}

impl Twin {
    fn close(&mut self, port: u16) {
        self.open.retain(|&p| p != port);
    }

    fn evict_idle(&mut self, now_ms: u64, seen: &mut Seen) {
        let cutoff = now_ms.saturating_sub(IDLE_MS);
        let idle: Vec<u16> = self
            .flows
            .iter()
            .filter(|(_, f)| f.last_seen_ms < cutoff)
            .map(|(&p, _)| p)
            .collect();
        for port in idle {
            if self.flows.remove(&port).and_then(|f| f.buf).is_some() {
                self.close(port);
                self.evicted += 1;
                self.abandoned[port as usize] = true;
                seen.idle_evicted_open += 1;
            }
        }
    }

    /// `FlowTable::observe`'s bookkeeping: whether the payload is
    /// inspected.
    fn observe(&mut self, t_ms: u64, port: u16, len: usize, seen: &mut Seen) -> bool {
        self.since_evict += 1;
        if self.since_evict >= 1024 {
            self.evict_idle(t_ms, seen);
            self.since_evict = 0;
            seen.amortized_evictions += 1;
        }
        let flow = self.flows.entry(port).or_default();
        flow.last_seen_ms = t_ms;
        !flow.done && len > 0
    }

    fn shed(&mut self, keep: u16, max_flows: usize, max_bytes: usize, seen: &mut Seen) {
        loop {
            let bytes: usize = self.open.iter().map(|p| self.flows[p].buf.unwrap().0).sum();
            if self.open.len() <= max_flows && bytes <= max_bytes {
                return;
            }
            let Some(at) = self.open.iter().position(|&p| p != keep) else {
                seen.shed_spared_keep += 1;
                return;
            };
            let port = self.open.remove(at);
            let flow = self.flows.get_mut(&port).unwrap();
            flow.done = true;
            flow.buf = None;
            self.evicted += 1;
            self.abandoned[port as usize] = true;
            seen.shed += 1;
        }
    }

    fn check(&self, table: &FlowTable, step: &str) {
        let keys: Vec<FlowKey> = table.reassembling().copied().collect();
        let want: Vec<FlowKey> = self.open.iter().map(|&p| key(p)).collect();
        assert_eq!(keys, want, "open buffers in opening order after {step}");
        let bytes: usize = self.open.iter().map(|p| self.flows[p].buf.unwrap().0).sum();
        assert_eq!(table.reassembling_flows(), self.open.len(), "after {step}");
        assert_eq!(table.reassembly_bytes(), bytes, "bytes after {step}");
        assert_eq!(table.evicted_mid_handshake(), self.evicted, "after {step}");
        assert_eq!(table.active_flows(), self.flows.len(), "flows after {step}");
    }
}

/// One seeded run of `steps` operations on ports 1..=4.
fn run(rng: &mut TestRng, steps: u64, seen: &mut Seen) {
    let mut table = FlowTable::new(IDLE_MS);
    let mut twin = Twin::default();
    let mut t_ms = 0;
    for _ in 0..steps {
        t_ms += below(rng, 12);
        let port = 1 + below(rng, 4) as u16;
        let step = match below(rng, 16) {
            // A segment: opened as a buffer or appended to one (the
            // observer's truncated path), replacing the buffer, or
            // concluding the flow.
            0..=11 => {
                let len = below(rng, 24) as usize;
                let pkt = packet(t_ms, port, len);
                let inspect = twin.observe(t_ms, port, len, seen);
                let entry = table.observe(&pkt);
                assert_eq!(entry.is_some(), inspect, "inspection at port {port}");
                let Some(mut entry) = entry else {
                    twin.check(&table, "a skipped segment");
                    continue;
                };
                if std::mem::take(&mut twin.abandoned[port as usize]) {
                    seen.reused_after_abandon += 1;
                }
                let flow = twin.flows.get_mut(&port).unwrap();
                match (below(rng, 8), flow.buf.as_mut()) {
                    (0, _) => {
                        entry.finish();
                        flow.done = true;
                        if flow.buf.take().is_some() {
                            twin.close(port);
                            seen.finished_open += 1;
                        }
                    }
                    (1, Some(_)) => {
                        entry.start_reassembly(&pkt.payload, t_ms);
                        flow.buf = Some((len, 1, t_ms));
                        twin.close(port);
                        twin.open.push(port);
                        seen.replaced += 1;
                    }
                    (_, Some(buf)) => {
                        let got = entry.append(&pkt.payload).expect("buffer is open");
                        *buf = (buf.0 + len, buf.1 + 1, buf.2);
                        assert_eq!((got.bytes.len(), got.segments, got.first_t_ms), *buf);
                        seen.appended += 1;
                    }
                    (_, None) => {
                        assert!(entry.append(&pkt.payload).is_none(), "no buffer yet");
                        entry.start_reassembly(&pkt.payload, t_ms);
                        flow.buf = Some((len, 1, t_ms));
                        twin.open.push(port);
                    }
                }
                "a segment"
            }
            12 => {
                let pkt = packet(t_ms, port, 0);
                assert!(!twin.observe(t_ms, port, 0, seen));
                assert!(table.observe(&pkt).is_none(), "an empty segment is skipped");
                "an empty segment"
            }
            13 => {
                twin.evict_idle(t_ms, seen);
                table.evict_idle(t_ms);
                "an idle eviction"
            }
            _ => {
                let (max_flows, max_bytes) = (below(rng, 4) as usize, below(rng, 64) as usize);
                twin.shed(port, max_flows, max_bytes, seen);
                table.shed(&key(port), max_flows, max_bytes);
                "a shed"
            }
        };
        twin.check(&table, step);
    }
}

#[test]
fn the_flow_table_keeps_what_a_list_of_live_buffers_keeps() {
    let mut rng = TestRng::deterministic("the_flow_table_keeps_what_a_list_of_live_buffers_keeps");
    let mut seen = Seen::default();
    for case in 0..proptest::case_count() {
        // One case in eight is long enough for the table's amortized idle
        // eviction (every 1 024 packets) to fire.
        let steps = if case % 8 == 0 {
            1_500
        } else {
            1 + below(&mut rng, 200)
        };
        run(&mut rng, steps, &mut seen);
    }
    eprintln!("flow table ≡ twin: {seen:?}");
    let Seen {
        appended,
        replaced,
        finished_open,
        shed,
        shed_spared_keep,
        idle_evicted_open,
        reused_after_abandon,
        amortized_evictions,
    } = seen;
    for (event, n) in [
        ("an append", appended),
        ("a replaced buffer", replaced),
        ("a finish of an open buffer", finished_open),
        ("a shed buffer", shed),
        ("a shed that spared only `keep`", shed_spared_keep),
        ("an idle eviction of an open buffer", idle_evicted_open),
        (
            "a 5-tuple reused after its flow was abandoned",
            reused_after_abandon,
        ),
        ("an amortized idle eviction", amortized_evictions),
    ] {
        assert!(n > 0, "no case had {event}");
    }
}
