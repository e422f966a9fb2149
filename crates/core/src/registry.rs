//! The Table-1 protocol registry: every row family, uniformly constructible.
//!
//! The conformance fuzzer needs to *enumerate* protocols — pick a row, pick a
//! process count, build the protocol, hand it to a visitor generic over the
//! concrete [`Protocol`] type. Rust protocols have distinct process types, so
//! the registry exposes the classic visitor pattern instead of trait objects:
//! [`all_rows`] lists the [`RowSpec`] metadata (anonymity, memory
//! boundedness, exact Table 1 space when known), and [`visit_row`]
//! constructs the protocol for a given `n` and passes it — statically typed —
//! to a [`RowVisitor`].
//!
//! Each entry corresponds to a protocol family exercised by
//! `tests/consensus_matrix.rs`; several Table 1 rows contribute more than one
//! family (counter flavors, increment flavors, buffer shapes).

use crate::bitwise::{increment_log_consensus, tas_reset_consensus, write01_consensus};
use crate::buffer::buffer_consensus;
use crate::cas::CasConsensus;
use crate::counter::{
    AddCounterFamily, AddFlavor, MultiplyCounterFamily, MultiplyFlavor, SetBitCounterFamily,
};
use crate::hetero::hetero_consensus;
use crate::increment::IncrementFlavor;
use crate::intro::{DecMulConsensus, FaaTasConsensus};
use crate::maxreg::MaxRegConsensus;
use crate::racing::RacingConsensus;
use crate::registers::register_consensus;
use crate::swap::SwapConsensus;
use crate::tracks::track_consensus;
use crate::util::BitWrite;
use cbh_model::Protocol;

/// Static description of one registered protocol family.
///
/// (No `PartialEq`: the `space` field is a function pointer, and function
/// pointer comparisons are meaningless across codegen units. Compare `id`s.)
#[derive(Debug, Clone, Copy)]
pub struct RowSpec {
    /// Stable identifier, used in scenario records and fuzzer seeds.
    pub id: &'static str,
    /// Paper provenance of the family's upper bound.
    pub source: &'static str,
    /// `true` if processes never consult their pid — exactly the protocols
    /// for which the checker's process-symmetry reduction is sound.
    pub anonymous: bool,
    /// `true` if the memory grows without bound (no Table 1 space to assert).
    pub unbounded_memory: bool,
    /// Smallest supported process count.
    pub min_n: usize,
    /// Exact worst-case locations touched as a function of `n` (Table 1),
    /// when the bound is exact for this concrete family.
    pub space: Option<fn(usize) -> usize>,
}

/// A computation generic over the concrete protocol type a row constructs.
///
/// The `P::Proc: Send + Sync` bounds let visitors hand the protocol to the
/// pooled packed explorer (whose workers share interned process
/// states by reference) and the real-thread runtime.
pub trait RowVisitor {
    /// What the visit produces.
    type Output;

    /// Called with the constructed protocol for the requested row.
    fn visit<P>(&mut self, spec: &RowSpec, protocol: P) -> Self::Output
    where
        P: Protocol,
        P::Proc: Send + Sync;
}

const ROWS: &[RowSpec] = &[
    RowSpec {
        id: "cas",
        source: "CAS folklore (Table 1 bottom row)",
        anonymous: true,
        unbounded_memory: false,
        min_n: 2,
        space: Some(|_| 1),
    },
    RowSpec {
        id: "faa-tas",
        source: "§1 introductory example",
        anonymous: true,
        unbounded_memory: false,
        min_n: 2,
        space: Some(|_| 1),
    },
    RowSpec {
        id: "dec-mul",
        source: "§1 introductory example",
        anonymous: true,
        unbounded_memory: false,
        min_n: 2,
        space: Some(|_| 1),
    },
    RowSpec {
        id: "racing-multiply",
        source: "Theorem 3.3 (read/multiply)",
        anonymous: true,
        unbounded_memory: false,
        min_n: 2,
        space: Some(|_| 1),
    },
    RowSpec {
        id: "racing-fetch-multiply",
        source: "Theorem 3.3 (fetch-and-multiply)",
        anonymous: true,
        unbounded_memory: false,
        min_n: 2,
        space: Some(|_| 1),
    },
    RowSpec {
        id: "racing-add",
        source: "Theorem 3.3 (read/add)",
        anonymous: true,
        unbounded_memory: false,
        min_n: 2,
        space: Some(|_| 1),
    },
    RowSpec {
        id: "racing-faa",
        source: "Theorem 3.3 (fetch-and-add)",
        anonymous: true,
        unbounded_memory: false,
        min_n: 2,
        space: Some(|_| 1),
    },
    RowSpec {
        id: "racing-setbit",
        source: "Theorem 3.3 (read/set-bit)",
        anonymous: false,
        unbounded_memory: false,
        min_n: 2,
        space: Some(|_| 1),
    },
    RowSpec {
        id: "maxreg",
        source: "Theorem 4.2 (two max-registers)",
        anonymous: true,
        unbounded_memory: false,
        min_n: 2,
        space: Some(|_| 2),
    },
    RowSpec {
        id: "increment-log",
        source: "Theorem 5.3 (increment)",
        anonymous: false,
        unbounded_memory: false,
        min_n: 2,
        space: None,
    },
    RowSpec {
        id: "fetch-increment-log",
        source: "Theorem 5.3 (fetch-and-increment)",
        anonymous: false,
        unbounded_memory: false,
        min_n: 2,
        space: None,
    },
    RowSpec {
        id: "buffer-l2",
        source: "Theorem 6.3 (ℓ = 2 buffers)",
        anonymous: false,
        unbounded_memory: false,
        min_n: 2,
        space: Some(|n| n.div_ceil(2)),
    },
    RowSpec {
        id: "buffer-ln",
        source: "Theorem 6.3 (ℓ = n buffers)",
        anonymous: false,
        unbounded_memory: false,
        min_n: 2,
        space: Some(|_| 1),
    },
    RowSpec {
        id: "hetero-buffers",
        source: "Section 7 heterogeneous capacities",
        anonymous: false,
        unbounded_memory: false,
        min_n: 2,
        space: None,
    },
    RowSpec {
        id: "swap",
        source: "Theorem 8.8 (Algorithm 1, anonymous)",
        anonymous: true,
        unbounded_memory: false,
        min_n: 2,
        space: Some(|n| n - 1),
    },
    RowSpec {
        id: "registers",
        source: "[AH90, BRS15, Zhu15] (n registers)",
        anonymous: false,
        unbounded_memory: false,
        min_n: 2,
        space: Some(|n| n),
    },
    RowSpec {
        id: "tracks-write1",
        source: "Theorem 9.3 (unbounded tracks, write(1))",
        anonymous: true,
        unbounded_memory: true,
        min_n: 2,
        space: None,
    },
    RowSpec {
        id: "tracks-tas",
        source: "Theorem 9.3 (unbounded tracks, test-and-set)",
        anonymous: true,
        unbounded_memory: true,
        min_n: 2,
        space: None,
    },
    RowSpec {
        id: "write01",
        source: "Theorem 9.4 (write 0/1)",
        anonymous: false,
        unbounded_memory: false,
        min_n: 2,
        space: None,
    },
    RowSpec {
        id: "tas-reset",
        source: "Theorem 9.4 (test-and-set/reset)",
        anonymous: false,
        unbounded_memory: false,
        min_n: 2,
        space: None,
    },
];

/// Every registered protocol family, in registry order.
pub fn all_rows() -> Vec<RowSpec> {
    ROWS.to_vec()
}

/// The spec registered under `id`, if any.
pub fn row_spec(id: &str) -> Option<RowSpec> {
    ROWS.iter().find(|r| r.id == id).copied()
}

/// Heterogeneous buffer capacities summing to `n`: twos, then a final one.
fn hetero_caps(n: usize) -> Vec<usize> {
    let mut caps = vec![2; n / 2];
    if n % 2 == 1 {
        caps.push(1);
    }
    caps
}

/// Constructs the protocol registered under `id` for `n` processes and
/// passes it to `visitor`; returns `None` for an unknown id.
///
/// # Panics
///
/// Panics if `n` is below the row's `min_n`.
pub fn visit_row<V: RowVisitor>(id: &str, n: usize, visitor: &mut V) -> Option<V::Output> {
    let spec = row_spec(id)?;
    assert!(
        n >= spec.min_n,
        "row {id} needs at least {} processes, got {n}",
        spec.min_n
    );
    Some(match id {
        "cas" => visitor.visit(&spec, CasConsensus::new(n)),
        "faa-tas" => visitor.visit(&spec, FaaTasConsensus::new(n)),
        "dec-mul" => visitor.visit(&spec, DecMulConsensus::new(n)),
        "racing-multiply" => visitor.visit(
            &spec,
            RacingConsensus::new(
                MultiplyCounterFamily::new(n, MultiplyFlavor::ReadMultiply),
                n,
            ),
        ),
        "racing-fetch-multiply" => visitor.visit(
            &spec,
            RacingConsensus::new(
                MultiplyCounterFamily::new(n, MultiplyFlavor::FetchAndMultiply),
                n,
            ),
        ),
        "racing-add" => visitor.visit(
            &spec,
            RacingConsensus::new(AddCounterFamily::new(n, n, AddFlavor::ReadAdd), n),
        ),
        "racing-faa" => visitor.visit(
            &spec,
            RacingConsensus::new(AddCounterFamily::new(n, n, AddFlavor::FetchAndAdd), n),
        ),
        "racing-setbit" => visitor.visit(
            &spec,
            RacingConsensus::new(SetBitCounterFamily::new(n, n), n),
        ),
        "maxreg" => visitor.visit(&spec, MaxRegConsensus::new(n)),
        "increment-log" => visitor.visit(
            &spec,
            increment_log_consensus(n, IncrementFlavor::Increment),
        ),
        "fetch-increment-log" => visitor.visit(
            &spec,
            increment_log_consensus(n, IncrementFlavor::FetchAndIncrement),
        ),
        "buffer-l2" => visitor.visit(&spec, buffer_consensus(n, 2)),
        "buffer-ln" => visitor.visit(&spec, buffer_consensus(n, n)),
        "hetero-buffers" => visitor.visit(&spec, hetero_consensus(n, hetero_caps(n))),
        "swap" => visitor.visit(&spec, SwapConsensus::new(n)),
        "registers" => visitor.visit(&spec, register_consensus(n)),
        "tracks-write1" => visitor.visit(&spec, track_consensus(n, BitWrite::Write1)),
        "tracks-tas" => visitor.visit(&spec, track_consensus(n, BitWrite::TestAndSet)),
        "write01" => visitor.visit(&spec, write01_consensus(n)),
        "tas-reset" => visitor.visit(&spec, tas_reset_consensus(n)),
        _ => unreachable!("row_spec returned Some for unregistered id {id}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbh_sim::{run_consensus, RoundRobinScheduler};

    /// Runs one round-robin consensus instance and returns (name, n, domain,
    /// touched, unanimous).
    struct Smoke;

    impl RowVisitor for Smoke {
        type Output = (String, usize, u64, usize, Option<u64>);

        fn visit<P>(&mut self, _spec: &RowSpec, protocol: P) -> Self::Output
        where
            P: Protocol,
            P::Proc: Send + Sync,
        {
            let n = protocol.n();
            let inputs: Vec<u64> = (0..n as u64).map(|i| i % protocol.domain()).collect();
            let report =
                run_consensus(&protocol, &inputs, RoundRobinScheduler::new(), 1_000_000).unwrap();
            report.check(&inputs).unwrap();
            (
                protocol.name(),
                n,
                protocol.domain(),
                report.locations_touched,
                report.unanimous(),
            )
        }
    }

    #[test]
    fn registry_covers_at_least_ten_distinct_rows() {
        let rows = all_rows();
        assert!(rows.len() >= 10, "only {} rows registered", rows.len());
        let ids: std::collections::BTreeSet<&str> = rows.iter().map(|r| r.id).collect();
        assert_eq!(ids.len(), rows.len(), "row ids must be unique");
    }

    #[test]
    fn every_row_constructs_and_solves_consensus() {
        for row in all_rows() {
            for n in [row.min_n, 3] {
                let (name, got_n, domain, touched, unanimous) =
                    visit_row(row.id, n, &mut Smoke).expect("registered id");
                assert_eq!(got_n, n, "{name}");
                assert!(domain >= 2, "{name}");
                assert!(unanimous.is_some(), "{name} must decide under round-robin");
                if let Some(space) = row.space {
                    assert!(
                        touched <= space(n),
                        "{name}: touched {touched} > Table 1 bound {}",
                        space(n)
                    );
                }
            }
        }
    }

    #[test]
    fn unknown_ids_are_rejected() {
        assert!(row_spec("no-such-row").is_none());
        assert!(visit_row("no-such-row", 2, &mut Smoke).is_none());
    }

    #[test]
    fn hetero_capacities_sum_to_n() {
        for n in 2..10 {
            assert_eq!(hetero_caps(n).iter().sum::<usize>(), n);
        }
    }
}
