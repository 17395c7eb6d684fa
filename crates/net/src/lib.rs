//! # hostprof-net
//!
//! The network-observer substrate for the CoNEXT '21 *User Profiling by
//! Network Observers* reproduction.
//!
//! The paper's threat model is a passive eavesdropper (ISP, VPN, WiFi
//! provider) that learns the hostnames users visit from the **SNI** field of
//! TLS ClientHello messages (and the equivalent field in QUIC Initial
//! packets and in DNS queries). The paper's experiment used a Chrome
//! extension as a stand-in for that observer; this crate closes the loop at
//! the byte level instead:
//!
//! * [`tls`] — a TLS 1.2/1.3 ClientHello **builder and parser** (record
//!   layer, handshake header, extensions, `server_name`), including an
//!   `encrypted_client_hello` extension to model ECH/ESNI-protected flows;
//! * [`quic`] — a simplified QUIC Initial (long header + CRYPTO frame
//!   carrying the ClientHello). Real Initial packets are protected with
//!   keys derived from the public Destination Connection ID, so any on-path
//!   observer can decrypt them; we model that by leaving the payload in the
//!   clear, which preserves exactly the observer-visible information;
//! * [`dns`] — a DNS query codec, for the paper's §7.2 "DNS providers are
//!   profilers too" discussion;
//! * [`packet`] / [`flow`] — packets, 5-tuples and a flow table that
//!   inspects only the first client payload of each flow;
//! * [`observer`] — [`observer::SniObserver`], the passive device that turns
//!   a packet stream into per-client hostname sequences — the exact input
//!   of the profiling algorithm;
//! * [`synthesize`] — turns abstract `(time, client, hostname)` request
//!   events into wire traffic, with optional NAT aggregation to reproduce
//!   the paper's "multiple users behind one IP" confusion experiment;
//! * [`capture`] — a compact capture file format so observed traffic can
//!   be recorded once and re-analyzed offline;
//! * [`chaos`] / [`conformance`] — seeded fault injection for packet
//!   streams, and the four properties (plus the golden SNI vectors) the
//!   observer is held to under it, by both test suites and `hostprof chaos`.
//!
//! Every parser is panic-free on arbitrary bytes (property-tested) and
//! zero-copy where it matters ([`tls::extract_sni`] and
//! [`quic::extract_sni_from_quic`] walk the packet's own bytes and copy
//! only the name), backing the paper's claim that profiling can run at
//! line rate.

pub mod capture;
pub mod chaos;
pub mod conformance;
pub mod dns;
pub mod error;
pub mod flow;
pub mod hash;
pub mod observer;
pub mod packet;
pub mod quic;
pub mod synthesize;
pub mod tls;
mod wire;

pub use capture::{CaptureError, CaptureReader, CaptureWriter};
pub use chaos::{ChaosConfig, ChaosOutcome, ChaosStats};
pub use error::ParseError;
pub use flow::{FlowEntry, FlowKey, FlowStats, FlowTable, Reassembly};
pub use observer::{Observation, ObserverConfig, ObserverStats, SniObserver};
pub use packet::{Endpoint, Packet, Transport};
pub use synthesize::{Addressing, RequestEvent, TrafficSynthesizer, WireOverride};
