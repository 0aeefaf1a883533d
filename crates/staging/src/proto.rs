//! Wire-level protocol types shared by the DES and threaded staging servers.
//!
//! Identity model: a workflow is composed of *application components*
//! (simulation, analytics, ...) identified by [`AppId`]; each component has
//! many ranks, but the staging protocol only needs the component identity —
//! per-component event queues are the unit of the paper's consistency
//! algorithm. Variables are interned to dense [`VarId`]s by [`VarRegistry`].

use crate::geometry::BBox;
use crate::payload::Payload;
use obs::TraceCtx;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Interned variable identifier.
pub type VarId = u32;
/// Data version; the synthetic workflows use the coupling time step.
pub type Version = u32;
/// Application component identifier (simulation = 0, analytics = 1, ...).
pub type AppId = u32;

/// Descriptor of a staged object: *which* variable, *which* version, *where*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ObjDesc {
    /// Variable.
    pub var: VarId,
    /// Version (time step).
    pub version: Version,
    /// Region covered.
    pub bbox: BBox,
}

/// Name → [`VarId`] interner.
#[derive(Debug, Default, Clone)]
pub struct VarRegistry {
    by_name: BTreeMap<String, VarId>,
    names: Vec<String>,
}

impl VarRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its stable id.
    pub fn intern(&mut self, name: &str) -> VarId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.names.len() as VarId;
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Look up an already-interned name.
    pub fn get(&self, name: &str) -> Option<VarId> {
        self.by_name.get(name).copied()
    }

    /// The name for an id.
    pub fn name(&self, id: VarId) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    /// Number of interned variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no variables are interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// A write of one (block-aligned) piece of a variable version.
#[derive(Debug, Clone)]
pub struct PutRequest {
    /// Issuing application component.
    pub app: AppId,
    /// Object being written.
    pub desc: ObjDesc,
    /// The data.
    pub payload: Payload,
    /// Client-side sequence number for matching responses.
    pub seq: u64,
    /// Causal trace context ([`TraceCtx::NONE`] when tracing is off):
    /// server-side work for this request parents under the client span that
    /// issued it.
    pub tctx: TraceCtx,
}

/// Outcome of a put.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutStatus {
    /// Stored as new data.
    Stored,
    /// Recognized as a redundant re-write from a rolled-back component and
    /// absorbed (the paper's write-deduplication during replay).
    Absorbed,
}

/// Server reply to a [`PutRequest`].
#[derive(Debug, Clone)]
pub struct PutResponse {
    /// Echoed descriptor.
    pub desc: ObjDesc,
    /// Echoed client sequence number.
    pub seq: u64,
    /// What happened.
    pub status: PutStatus,
}

/// A read of a region of a variable version.
#[derive(Debug, Clone)]
pub struct GetRequest {
    /// Issuing application component.
    pub app: AppId,
    /// Variable to read.
    pub var: VarId,
    /// Version requested by the application. During replay the server may
    /// serve a *different* stored version (the one the original execution
    /// observed); the response records what was actually served.
    pub version: Version,
    /// Region requested.
    pub bbox: BBox,
    /// Client-side sequence number.
    pub seq: u64,
    /// Causal trace context ([`TraceCtx::NONE`] when tracing is off).
    pub tctx: TraceCtx,
}

/// One piece of a get result.
#[derive(Debug, Clone)]
pub struct GetPiece {
    /// Sub-region this piece covers (intersection of the stored block and
    /// the request bbox).
    pub bbox: BBox,
    /// Version actually served.
    pub version: Version,
    /// Stored payload of the containing block.
    pub payload: Payload,
}

/// Server reply to a [`GetRequest`].
#[derive(Debug, Clone)]
pub struct GetResponse {
    /// Echoed request identity.
    pub var: VarId,
    /// Echoed requested version.
    pub version: Version,
    /// Echoed client sequence number.
    pub seq: u64,
    /// Pieces intersecting the requested region (may be empty if nothing is
    /// stored there).
    pub pieces: Vec<GetPiece>,
}

/// Control messages from the workflow-level framework to staging servers
/// (the paper's `workflow_check` / `workflow_restart` notifications).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CtlRequest {
    /// `workflow_check()`: the component finished a checkpoint covering all
    /// versions `<= upto_version`.
    Checkpoint {
        /// Component that checkpointed.
        app: AppId,
        /// Highest version captured by the checkpoint.
        upto_version: Version,
    },
    /// `workflow_restart()`: the component rolled back to its last checkpoint
    /// and will re-execute from `resume_version + 1`.
    Recovery {
        /// Component that failed and restarted.
        app: AppId,
        /// Version of its restored checkpoint.
        resume_version: Version,
    },
    /// Global coordinated rollback (the Co baseline): the whole workflow
    /// returns to `to_version`, and staging discards every newer version so
    /// that re-execution re-populates it exactly like the first execution.
    GlobalReset {
        /// Version of the global coordinated checkpoint.
        to_version: Version,
    },
}

/// Server acknowledgement of a [`CtlRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtlResponse {
    /// Echoed control request.
    pub req: CtlRequest,
    /// Number of replayable log events now pending for the app (recovery
    /// only; zero otherwise). Diagnostic, used by tests.
    pub pending_replay: u64,
}

/// A [`CtlRequest`] wrapped with a client identity and sequence number.
///
/// Control requests are not idempotent (a duplicated `GlobalReset` delivered
/// after re-execution started would discard re-executed data), so clients
/// that may retry — or whose transport may duplicate — send this envelope;
/// the server dedups on `(app, seq)` and replays the recorded acknowledgement
/// for duplicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtlMsg {
    /// Issuing component (the dedup namespace; `GlobalReset` carries no app
    /// of its own).
    pub app: AppId,
    /// Client-side sequence number, unique per app.
    pub seq: u64,
    /// The wrapped control request.
    pub req: CtlRequest,
    /// Causal trace context ([`TraceCtx::NONE`] when tracing is off). Rides
    /// the envelope, *not* [`CtlRequest`] itself: the bare request is
    /// journaled verbatim by the durable store and its format must not
    /// change.
    pub tctx: TraceCtx,
}

/// Server acknowledgement of a [`CtlMsg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtlAck {
    /// Echoed client sequence number.
    pub seq: u64,
    /// The underlying control response.
    pub resp: CtlResponse,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_interns_stably() {
        let mut r = VarRegistry::new();
        let t = r.intern("temperature");
        let p = r.intern("pressure");
        assert_ne!(t, p);
        assert_eq!(r.intern("temperature"), t);
        assert_eq!(r.get("pressure"), Some(p));
        assert_eq!(r.name(t), Some("temperature"));
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.get("missing"), None);
        assert_eq!(r.name(99), None);
    }

    #[test]
    fn desc_equality_by_value() {
        let a = ObjDesc { var: 1, version: 2, bbox: BBox::d1(0, 9) };
        let b = ObjDesc { var: 1, version: 2, bbox: BBox::d1(0, 9) };
        assert_eq!(a, b);
    }
}
