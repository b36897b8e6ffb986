//! Abstraction over node-property-map backends.

use kimbap_comm::HostCtx;
use kimbap_dist::DistGraph;
use kimbap_npm::{NodePropMap, Npm, PropValue, ReduceOp, ShardedMap};

/// Constructs node-property maps for an algorithm.
///
/// Algorithms take a `MapBuilder` instead of a concrete map type so the
/// identical algorithm source runs on every runtime of §6.4: the product
/// map (via [`NpmBuilder`]), the SGR-only and SGR+CF baseline (via
/// [`ShardedBuilder`]) and the memcached-like store (via
/// `kimbap-baselines`' builder).
pub trait MapBuilder: Sync {
    /// The map type produced for value type `T` and operator `Op`.
    type Map<'g, T: PropValue, Op: ReduceOp<T>>: NodePropMap<T>
    where
        Self: 'g;

    /// Creates a map over `dg`'s global node space. Collective: all hosts
    /// construct their maps together.
    fn build<'g, T: PropValue, Op: ReduceOp<T>>(
        &'g self,
        dg: &'g DistGraph,
        ctx: &HostCtx,
        op: Op,
    ) -> Self::Map<'g, T, Op>;
}

/// Builds the product node-property map, [`Npm`] (SGR+CF+GAR).
#[derive(Debug, Clone, Copy, Default)]
pub struct NpmBuilder;

impl MapBuilder for NpmBuilder {
    type Map<'g, T: PropValue, Op: ReduceOp<T>> = Npm<'g, T, Op>;

    fn build<'g, T: PropValue, Op: ReduceOp<T>>(
        &'g self,
        dg: &'g DistGraph,
        ctx: &HostCtx,
        op: Op,
    ) -> Npm<'g, T, Op> {
        Npm::new(dg, ctx, op)
    }
}

/// Builds the [`ShardedMap`] baseline of Fig. 11's SGR-only and SGR+CF
/// rows (§6.4).
///
/// # Example
///
/// ```
/// use kimbap_algos::ShardedBuilder;
///
/// let rows = [ShardedBuilder::sgr_only(), ShardedBuilder::sgr_cf()];
/// assert_eq!(rows.map(|b| b.to_string()), ["SGR-only", "SGR+CF"]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ShardedBuilder {
    conflict_free: bool,
}

impl ShardedBuilder {
    /// The SGR-only row: one shared sharded-lock map for reductions.
    pub fn sgr_only() -> Self {
        ShardedBuilder { conflict_free: false }
    }

    /// The SGR+CF row: conflict-free thread-local reductions.
    pub fn sgr_cf() -> Self {
        ShardedBuilder { conflict_free: true }
    }
}

impl std::fmt::Display for ShardedBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.conflict_free { "SGR+CF" } else { "SGR-only" })
    }
}

impl MapBuilder for ShardedBuilder {
    type Map<'g, T: PropValue, Op: ReduceOp<T>> = ShardedMap<T, Op>;

    fn build<'g, T: PropValue, Op: ReduceOp<T>>(
        &'g self,
        dg: &'g DistGraph,
        ctx: &HostCtx,
        op: Op,
    ) -> ShardedMap<T, Op> {
        ShardedMap::new(dg, ctx, op, self.conflict_free)
    }
}
