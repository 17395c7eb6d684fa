//! The wire-level vantage point: what a passive eavesdropper actually sees.
//!
//! Lowers a synthetic browsing trace onto the wire (TLS ClientHellos over
//! TCP, QUIC Initials, optionally DNS), runs the passive SNI observer over
//! the packets, and shows how three deployment realities from the paper's
//! §7.2/§7.4 change what the observer learns:
//!
//! * one IP per user (WiFi / mobile provider) — perfect sequences;
//! * NAT (landline ISP) — users collapse into shared sequences;
//! * ECH adoption — hostnames disappear from the handshake.
//!
//! ```text
//! cargo run --release --example sni_observer
//! ```

use hostprof::bridge::{ObservedTrace, ObserverScenario};
use hostprof::scenario::{Scenario, ScenarioConfig};
use hostprof::synth::UserId;

fn main() {
    println!("hostprof sni_observer — the eavesdropper's packet-level view\n");

    let mut cfg = ScenarioConfig::tiny();
    cfg.trace.days = 1;
    cfg.population.num_users = 12;
    let s = Scenario::generate(&cfg);
    println!(
        "trace: {} requests from {} users\n",
        s.trace.requests().len(),
        s.population.len()
    );

    // --- Vantage point 1: per-user addressing -------------------------
    let clean = ObserverScenario::per_user();
    let obs = ObservedTrace::capture(&s.world, &s.trace, &clean, None);
    println!("[1] per-user IPs (WiFi/mobile vantage point)");
    println!("    clients seen:        {}", obs.sequences.len());
    println!("    fidelity:            {:.1}%", obs.fidelity() * 100.0);
    println!(
        "    TLS SNI / QUIC SNI:  {} / {}",
        obs.observer_stats.tls_sni, obs.observer_stats.quic_sni
    );
    let ip = ObservedTrace::address_of(&clean, UserId(0));
    let seq = obs.client_hostnames(ip);
    println!(
        "    user u0's first hostnames: {}",
        seq.iter().take(5).cloned().collect::<Vec<_>>().join(", ")
    );

    // --- Vantage point 2: NAT ------------------------------------------
    let nat = ObserverScenario::behind_nat(4);
    let obs_nat = ObservedTrace::capture(&s.world, &s.trace, &nat, None);
    println!("\n[2] 4 users behind each NAT (landline ISP vantage point)");
    println!(
        "    clients seen:        {} (was {})",
        obs_nat.sequences.len(),
        obs.sequences.len()
    );
    println!(
        "    fidelity:            {:.1}% — nothing lost, but sequences mix users,",
        obs_nat.fidelity() * 100.0
    );
    println!("    which degrades per-user profiles (§7.2 of the paper)");

    // --- Vantage point 3: ECH adoption ----------------------------------
    println!("\n[3] encrypted ClientHello adoption (§7.4)");
    for frac in [0.0, 0.5, 1.0] {
        let ech = ObserverScenario::with_ech(frac);
        let o = ObservedTrace::capture(&s.world, &s.trace, &ech, None);
        println!(
            "    ECH on {:>3.0}% of connections → observer recovers {:>5.1}% of hostnames",
            frac * 100.0,
            o.fidelity() * 100.0
        );
    }

    // --- DNS harvesting --------------------------------------------------
    let mut dns = ObserverScenario::per_user();
    dns.synthesizer.dns_fraction = 1.0;
    dns.harvest_dns = true;
    let o = ObservedTrace::capture(&s.world, &s.trace, &dns, None);
    println!("\n[4] a DNS-provider vantage point (plaintext queries, §7.2)");
    println!(
        "    DNS names harvested: {} (plus {} TLS + {} QUIC handshakes)",
        o.observer_stats.dns_names, o.observer_stats.tls_sni, o.observer_stats.quic_sni
    );
    println!(
        "    flow table: {} flows created over {} packets",
        o.flow_stats.flows_created, o.flow_stats.packets
    );
}
