//! LP engine selection: the sparse revised simplex and the dense tableau.
//!
//! Every runtime solve — the routability oracles, ISP's decision LPs,
//! branch & bound, the flow-cost relaxations — runs the sparse revised
//! simplex. The dense tableau survives only as a reference that the
//! differential tests and the `lp` bench select explicitly, through
//! [`crate::simplex::solve_with`] and the `mcf::*_with` builders.

use serde::{Deserialize, Serialize};

/// Which simplex implementation solves LPs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LpEngine {
    /// The dense-tableau two-phase simplex ([`crate::simplex::solve_dense`])
    /// — the original reference implementation; upper bounds become
    /// explicit constraint rows and every solve starts cold.
    Dense,
    /// The sparse revised simplex ([`crate::revised`]) — CSC columns,
    /// native variable bounds, eta-file basis updates, warm-startable.
    Revised,
}

/// The engine every runtime solve uses: always [`LpEngine::Revised`].
pub fn global_engine() -> LpEngine {
    LpEngine::Revised
}
