//! # hostprof-synth
//!
//! Synthetic web + user population + browsing-trace generator.
//!
//! The paper *User Profiling by Network Observers* (CoNEXT '21) evaluated on
//! proprietary traces from 1329 real users collected by a Chrome extension
//! over several months — data we cannot obtain. This crate is the documented
//! substitution (see `DESIGN.md` §2): a generative world model that
//! reproduces the statistical structure the profiling algorithm exploits:
//!
//! * a hostname universe of content **sites**, **CDNs**, **API endpoints**,
//!   **trackers/ad servers** and a small set of ultra-popular **core** hosts
//!   (the google.com / facebook.com analogues);
//! * ground-truth category vectors per host (sites get their topics; CDNs
//!   and APIs inherit the mix of the sites that embed them; trackers carry
//!   no interest signal);
//! * a partial-coverage ontology (`H_L`) biased toward popular sites —
//!   CDN/API hosts are essentially never labeled, reproducing the paper's
//!   "67 % of hostnames return an error page when crawled" and "Adwords
//!   covers only 10.6 %" observations;
//! * users with Dirichlet-sampled interest profiles and diurnal,
//!   topic-persistent browsing sessions;
//! * traces: time-stamped `(user, host)` request sequences where visiting a
//!   site also fires its CDN/API/tracker dependencies — this co-request
//!   structure is exactly what the SKIPGRAM profiler learns from.
//!
//! Everything is deterministic given a seed.

pub mod config;
pub mod ids;
pub mod lane;
pub mod names;
pub mod sampling;
pub mod stream;
pub mod trace;
pub mod user;
pub mod world;

pub use config::{PopulationConfig, TraceConfig, WorldConfig};
pub use ids::{HostId, UserId};
pub use lane::{for_each_user_lane, generate_columnar, world_interner};
pub use stream::{StreamConfig, TraceStream};
pub use trace::{Request, Trace, TraceStats};
pub use user::{Population, UserProfile};
pub use world::{Host, HostKind, World};
