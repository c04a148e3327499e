//! # sipsim — the application under test
//!
//! A synthetic model of the paper's subject: a multi-threaded SIP proxy
//! server for VoIP networks (§3.3), driven by SIPp-style request scenarios.
//! The crate provides:
//!
//! * a SIP request model and parser ([`sip`]) plus a seeded scenario
//!   generator ([`workload`]) standing in for the SIPp test bed;
//! * the proxy application builder ([`proxy`]) whose guest code contains a
//!   calibrated catalogue of warning sites in the paper's three categories
//!   (bus-lock FPs, destructor FPs, real races) with ground-truth labels;
//! * the eight evaluation test cases T1–T8 and the Fig 5/6 harness
//!   ([`testcases`]);
//! * the §4.1 true-positive bug catalogue ([`bugs`]);
//! * matched native/VM workloads for the §4.5 performance experiment
//!   ([`native`]).

pub mod bugs;
pub mod native;
pub mod proxy;
pub mod sip;
pub mod soak;
pub mod testcases;
pub mod workload;

pub use proxy::{build_proxy, BuiltProxy, Dispatch, ProxyConfig, SiteLabel, SiteMap};
pub use sip::{Method, SipRequest};
pub use soak::{
    build_soak_phase, phase_fault_plan, phase_sched_seed, run_phase, run_phase_in, CatEntry,
    PhaseEnd, PhaseOutcome, PhaseStats, SoakLog,
};
pub use testcases::{
    reproduce_fig6, run_case, run_case_chaos, run_case_chaos_in, run_case_chaos_with, testcases,
    CaseResult, ChaosRunOutcome, Fig6Row, TestCase,
};
pub use workload::{
    apply_chaos, generate, phase_cells, ChaosSpec, DialogCell, DialogClass, FlowKind, ScenarioSpec,
    SoakSpec,
};
