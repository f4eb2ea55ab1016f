//! Server-side network fault injection.
//!
//! [`NetFaults`] plugs two deterministic [`FaultInjector`]s into the
//! registry server (via [`ServerConfig::faults`](crate::ServerConfig)):
//!
//! * the **accept** injector is consulted once per accepted connection —
//!   a scheduled fault closes the socket immediately, the transient
//!   `ECONNRESET` a restarting registry produces;
//! * the **response** injector is consulted once per outgoing frame
//!   (replies *and* blob chunks). A fault's blast radius is part of its
//!   meaning: `DropConnection`/`ConnReset` close the connection,
//!   `TruncateFrame`/`TornWrite` emit a prefix of one frame and then close
//!   (the torn-write failure mode), and `IoError` silently swallows
//!   exactly one response frame while the connection lives on to serve
//!   the next request.
//!
//! Both plans come from `mmlib-store`'s [`FaultPlan`], so one seed
//! describes a whole storage + network failure scenario. Clients are
//! expected to survive every injected fault through `RemoteStore`'s
//! retry loop; the fault tests in `crates/net/tests` assert exactly that.

use mmlib_store::fault::{Fault, FaultInjector, FaultPlan};

/// Fault schedules for a [`RegistryServer`](crate::RegistryServer).
#[derive(Debug)]
pub struct NetFaults {
    accept: FaultInjector,
    response: FaultInjector,
}

impl NetFaults {
    /// Separate schedules for accepted connections and response frames.
    pub fn new(accept: FaultPlan, response: FaultPlan) -> NetFaults {
        NetFaults {
            accept: FaultInjector::new(accept),
            response: FaultInjector::new(response),
        }
    }

    /// Faults on accepted connections only.
    pub fn accept_only(plan: FaultPlan) -> NetFaults {
        let seed = plan.seed();
        NetFaults::new(plan, FaultPlan::new(seed))
    }

    /// Faults on response frames only.
    pub fn response_only(plan: FaultPlan) -> NetFaults {
        let seed = plan.seed();
        NetFaults::new(FaultPlan::new(seed), plan)
    }

    /// Consults the accept schedule for the next connection.
    pub(crate) fn on_accept(&self) -> Option<Fault> {
        self.accept.next()
    }

    /// Consults the response schedule for the next outgoing frame.
    pub(crate) fn on_response(&self) -> Option<Fault> {
        self.response.next()
    }

    /// The accept-side injector (inspection in tests).
    pub fn accept_injector(&self) -> &FaultInjector {
        &self.accept
    }

    /// The response-side injector (inspection in tests).
    pub fn response_injector(&self) -> &FaultInjector {
        &self.response
    }
}
