//! Replication policies: Table 1 of the paper as a typed, validated
//! configuration.
//!
//! "These parameters must be set by the programmer of a Web object at
//! initialization once the object-based coherence model has been chosen"
//! (§3.3). Every replication object in this crate interprets the same
//! parameter set; the policy can also be changed dynamically at run time
//! (the paper's §5 future work).

use std::fmt;
use std::time::Duration;

use globe_coherence::{ObjectModel, StoreClass};
use globe_wire::{wire_enum, wire_record};

use crate::PolicyError;

wire_enum! {
    /// *Consistency propagation*: "either by updating or invalidating
    /// replicas when changes occur on an object."
    pub enum Propagation {
        /// Ship the change itself.
        Update = 0,
        /// Ship an invalidation; replicas refetch on demand.
        Invalidate = 1,
    }
}

wire_enum! {
    /// *Store*: "which kind of store implements the object-based
    /// coherence model."
    pub enum StoreScope {
        /// Only permanent stores.
        Permanent = 0,
        /// Permanent and object-initiated stores (mirrors).
        PermanentAndObjectInitiated = 1,
        /// Every store, including client caches.
        All = 2,
    }
}

wire_enum! {
    /// *Write set*: "the number of simultaneous writers."
    pub enum WriteSet {
        /// A single writer (like the paper's Web master).
        Single = 0,
        /// Multiple concurrent writers (like a shared white-board).
        Multiple = 1,
    }
}

wire_enum! {
    /// *Transfer initiative*: "who is in charge of the propagation of
    /// coherence information."
    pub enum TransferInitiative {
        /// The holder of the change pushes it to replicas.
        Push = 0,
        /// Replicas pull coherence information.
        Pull = 1,
    }
}

wire_enum! {
    /// *Transfer instant*: "when the coherence is managed: either as soon
    /// as a change occurs, or periodically whereby successive updates can
    /// be aggregated."
    pub enum TransferInstant {
        /// Propagate at every change.
        Immediate = 0,
        /// Propagate periodically, aggregating successive changes (the
        /// period lives in [`ReplicationPolicy::lazy_period`]).
        Lazy = 1,
    }
}

wire_enum! {
    /// *Access transfer type*: "whether only part of the Web document or
    /// the entire document is retrieved when accessed."
    pub enum AccessTransfer {
        /// Retrieve only the requested page.
        Partial = 0,
        /// Retrieve the entire document on access.
        Full = 1,
    }
}

wire_enum! {
    /// *Coherence transfer type*: "whether coherence is managed on only
    /// part of the Web document, or on the entire document", where
    /// notification sends no data at all.
    pub enum CoherenceTransfer {
        /// Only a change notification is sent.
        Notification = 0,
        /// Only the changed parts (the write operations) are shipped.
        Partial = 1,
        /// The entire document state is shipped.
        Full = 2,
    }
}

wire_enum! {
    /// *Outdate reaction*: what a store does "when it notices that
    /// coherence requirements for a given model are not satisfied": wait
    /// passively for an update, or demand one immediately.
    pub enum OutdateReaction {
        /// Passively wait until the missing update arrives.
        Wait = 0,
        /// Demand the missing update immediately.
        Demand = 1,
    }
}

/// The complete per-object replication strategy: an object-based
/// coherence model plus the Table-1 implementation parameters.
///
/// Construct via [`ReplicationPolicy::builder`] (validated) or one of the
/// presets; the `Display` impl renders the paper's Table-2 layout.
///
/// # Examples
///
/// ```
/// use globe_core::ReplicationPolicy;
///
/// let policy = ReplicationPolicy::conference_page();
/// let sheet = policy.to_string();
/// assert!(sheet.contains("Coherence propagation: update"));
/// assert!(sheet.contains("Transfer instant:      lazy (periodic"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicationPolicy {
    /// The object-based coherence model (§3.2.1).
    pub model: ObjectModel,
    /// Update vs invalidate propagation.
    pub propagation: Propagation,
    /// Which store layers implement the model.
    pub store_scope: StoreScope,
    /// Single vs multiple writers.
    pub write_set: WriteSet,
    /// Push vs pull.
    pub initiative: TransferInitiative,
    /// Immediate vs lazy propagation.
    pub instant: TransferInstant,
    /// Aggregation period for lazy propagation (also the poll interval
    /// for pull initiative).
    pub lazy_period: Duration,
    /// Client access granularity.
    pub access_transfer: AccessTransfer,
    /// Coherence traffic granularity.
    pub coherence_transfer: CoherenceTransfer,
    /// Store reaction to violated object-based requirements.
    pub object_outdate: OutdateReaction,
    /// Store reaction to violated client-based requirements.
    pub client_outdate: OutdateReaction,
}

impl ReplicationPolicy {
    /// Starts a validated builder for the given object model.
    pub fn builder(model: ObjectModel) -> PolicyBuilder {
        PolicyBuilder {
            policy: ReplicationPolicy::base(model),
        }
    }

    fn base(model: ObjectModel) -> Self {
        ReplicationPolicy {
            model,
            propagation: Propagation::Update,
            store_scope: StoreScope::All,
            write_set: WriteSet::Multiple,
            initiative: TransferInitiative::Push,
            instant: TransferInstant::Immediate,
            lazy_period: Duration::from_millis(500),
            access_transfer: AccessTransfer::Partial,
            coherence_transfer: CoherenceTransfer::Partial,
            object_outdate: OutdateReaction::Wait,
            client_outdate: OutdateReaction::Demand,
        }
    }

    /// The exact strategy of the paper's worked example (Table 2): PRAM
    /// at all stores, single writer, periodic push of partial updates,
    /// full access transfer, wait/demand outdate reactions.
    pub fn conference_page() -> Self {
        ReplicationPolicy {
            model: ObjectModel::Pram,
            propagation: Propagation::Update,
            store_scope: StoreScope::All,
            write_set: WriteSet::Single,
            initiative: TransferInitiative::Push,
            instant: TransferInstant::Lazy,
            lazy_period: Duration::from_secs(2),
            access_transfer: AccessTransfer::Full,
            coherence_transfer: CoherenceTransfer::Partial,
            object_outdate: OutdateReaction::Wait,
            client_outdate: OutdateReaction::Demand,
        }
    }

    /// A personal home page (§1): eventual coherence, pull-on-access by
    /// browser caches, invalidation-free.
    pub fn personal_home_page() -> Self {
        ReplicationPolicy {
            model: ObjectModel::Eventual,
            propagation: Propagation::Update,
            store_scope: StoreScope::Permanent,
            write_set: WriteSet::Single,
            initiative: TransferInitiative::Pull,
            instant: TransferInstant::Lazy,
            lazy_period: Duration::from_secs(10),
            access_transfer: AccessTransfer::Full,
            coherence_transfer: CoherenceTransfer::Full,
            object_outdate: OutdateReaction::Wait,
            client_outdate: OutdateReaction::Wait,
        }
    }

    /// A magazine-like document (§1): "updated periodically, may benefit
    /// from a push strategy to servers in areas with a relatively large
    /// number of subscribers."
    pub fn magazine() -> Self {
        ReplicationPolicy {
            model: ObjectModel::Fifo,
            propagation: Propagation::Update,
            store_scope: StoreScope::PermanentAndObjectInitiated,
            write_set: WriteSet::Single,
            initiative: TransferInitiative::Push,
            instant: TransferInstant::Lazy,
            lazy_period: Duration::from_secs(5),
            access_transfer: AccessTransfer::Partial,
            coherence_transfer: CoherenceTransfer::Partial,
            object_outdate: OutdateReaction::Wait,
            client_outdate: OutdateReaction::Wait,
        }
    }

    /// A multi-writer groupware object (§3.2.2: "a groupware editor
    /// requires strong coherence at every store layer").
    pub fn whiteboard() -> Self {
        ReplicationPolicy {
            model: ObjectModel::Sequential,
            propagation: Propagation::Update,
            store_scope: StoreScope::All,
            write_set: WriteSet::Multiple,
            initiative: TransferInitiative::Push,
            instant: TransferInstant::Immediate,
            lazy_period: Duration::from_millis(500),
            access_transfer: AccessTransfer::Partial,
            coherence_transfer: CoherenceTransfer::Partial,
            object_outdate: OutdateReaction::Demand,
            client_outdate: OutdateReaction::Demand,
        }
    }

    /// A causally coherent Web forum (§3.2.1's newsgroup example).
    pub fn news_forum() -> Self {
        ReplicationPolicy {
            model: ObjectModel::Causal,
            propagation: Propagation::Update,
            store_scope: StoreScope::All,
            write_set: WriteSet::Multiple,
            initiative: TransferInitiative::Push,
            instant: TransferInstant::Immediate,
            lazy_period: Duration::from_millis(500),
            access_transfer: AccessTransfer::Partial,
            coherence_transfer: CoherenceTransfer::Partial,
            object_outdate: OutdateReaction::Wait,
            client_outdate: OutdateReaction::Demand,
        }
    }

    /// Whether a store of `class` participates in enforcing the
    /// object-based model (Table 1's *store* parameter).
    pub fn in_scope(&self, class: StoreClass) -> bool {
        match self.store_scope {
            StoreScope::Permanent => class == StoreClass::Permanent,
            StoreScope::PermanentAndObjectInitiated => class.is_server_managed(),
            StoreScope::All => true,
        }
    }

    /// Validates the parameter combination.
    ///
    /// # Errors
    ///
    /// Returns a [`PolicyError`] for contradictory settings.
    pub fn validate(&self) -> Result<(), PolicyError> {
        if self.instant == TransferInstant::Lazy && self.lazy_period.is_zero() {
            return Err(PolicyError::ZeroLazyPeriod);
        }
        if self.initiative == TransferInitiative::Pull && self.lazy_period.is_zero() {
            return Err(PolicyError::ZeroLazyPeriod);
        }
        if self.propagation == Propagation::Invalidate
            && self.coherence_transfer == CoherenceTransfer::Full
        {
            return Err(PolicyError::Contradiction(
                "invalidation never ships full state; use update propagation",
            ));
        }
        if self.model == ObjectModel::Sequential
            && self.propagation == Propagation::Invalidate
            && self.object_outdate == OutdateReaction::Wait
        {
            return Err(PolicyError::Contradiction(
                "sequential + invalidate requires demand reaction to refetch the order",
            ));
        }
        Ok(())
    }
}

impl fmt::Display for ReplicationPolicy {
    /// Renders in the layout of the paper's Table 2.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Coherence model:       {}", self.model)?;
        writeln!(
            f,
            "Coherence propagation: {}",
            match self.propagation {
                Propagation::Update => "update",
                Propagation::Invalidate => "invalidate",
            }
        )?;
        writeln!(
            f,
            "Store:                 {}",
            match self.store_scope {
                StoreScope::Permanent => "permanent",
                StoreScope::PermanentAndObjectInitiated => "permanent and object-initiated",
                StoreScope::All => "all",
            }
        )?;
        writeln!(
            f,
            "Write set:             {}",
            match self.write_set {
                WriteSet::Single => "single",
                WriteSet::Multiple => "multiple",
            }
        )?;
        writeln!(
            f,
            "Transfer initiative:   {}",
            match self.initiative {
                TransferInitiative::Push => "push",
                TransferInitiative::Pull => "pull",
            }
        )?;
        match self.instant {
            TransferInstant::Immediate => writeln!(f, "Transfer instant:      immediate")?,
            TransferInstant::Lazy => writeln!(
                f,
                "Transfer instant:      lazy (periodic, {:?})",
                self.lazy_period
            )?,
        }
        writeln!(
            f,
            "Access transfer type:  {}",
            match self.access_transfer {
                AccessTransfer::Partial => "partial",
                AccessTransfer::Full => "full",
            }
        )?;
        writeln!(
            f,
            "Coherence transfer:    {}",
            match self.coherence_transfer {
                CoherenceTransfer::Notification => "notification",
                CoherenceTransfer::Partial => "partial",
                CoherenceTransfer::Full => "full",
            }
        )?;
        writeln!(
            f,
            "Object-outdate:        {}",
            match self.object_outdate {
                OutdateReaction::Wait => "wait",
                OutdateReaction::Demand => "demand",
            }
        )?;
        write!(
            f,
            "Client-outdate:        {}",
            match self.client_outdate {
                OutdateReaction::Wait => "wait",
                OutdateReaction::Demand => "demand",
            }
        )
    }
}

wire_record!(ReplicationPolicy {
    model,
    propagation,
    store_scope,
    write_set,
    initiative,
    instant,
    lazy_period,
    access_transfer,
    coherence_transfer,
    object_outdate,
    client_outdate,
});

/// Validated builder for [`ReplicationPolicy`].
#[derive(Debug, Clone)]
pub struct PolicyBuilder {
    policy: ReplicationPolicy,
}

impl PolicyBuilder {
    /// Sets update vs invalidate propagation.
    pub fn propagation(mut self, v: Propagation) -> Self {
        self.policy.propagation = v;
        self
    }

    /// Sets which store layers implement the model.
    pub fn store_scope(mut self, v: StoreScope) -> Self {
        self.policy.store_scope = v;
        self
    }

    /// Sets the writer population.
    pub fn write_set(mut self, v: WriteSet) -> Self {
        self.policy.write_set = v;
        self
    }

    /// Sets push vs pull initiative.
    pub fn initiative(mut self, v: TransferInitiative) -> Self {
        self.policy.initiative = v;
        self
    }

    /// Sets immediate propagation.
    pub fn immediate(mut self) -> Self {
        self.policy.instant = TransferInstant::Immediate;
        self
    }

    /// Sets lazy (periodic, aggregated) propagation with the given period.
    pub fn lazy(mut self, period: Duration) -> Self {
        self.policy.instant = TransferInstant::Lazy;
        self.policy.lazy_period = period;
        self
    }

    /// Sets the pull/poll period without switching to lazy pushes.
    pub fn period(mut self, period: Duration) -> Self {
        self.policy.lazy_period = period;
        self
    }

    /// Sets the client access granularity.
    pub fn access_transfer(mut self, v: AccessTransfer) -> Self {
        self.policy.access_transfer = v;
        self
    }

    /// Sets the coherence traffic granularity.
    pub fn coherence_transfer(mut self, v: CoherenceTransfer) -> Self {
        self.policy.coherence_transfer = v;
        self
    }

    /// Sets the store reaction to violated object-based requirements.
    pub fn object_outdate(mut self, v: OutdateReaction) -> Self {
        self.policy.object_outdate = v;
        self
    }

    /// Sets the store reaction to violated client-based requirements.
    pub fn client_outdate(mut self, v: OutdateReaction) -> Self {
        self.policy.client_outdate = v;
        self
    }

    /// Validates and returns the policy.
    ///
    /// # Errors
    ///
    /// Returns a [`PolicyError`] for contradictory settings.
    pub fn build(self) -> Result<ReplicationPolicy, PolicyError> {
        self.policy.validate()?;
        Ok(self.policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for policy in [
            ReplicationPolicy::conference_page(),
            ReplicationPolicy::personal_home_page(),
            ReplicationPolicy::magazine(),
            ReplicationPolicy::whiteboard(),
            ReplicationPolicy::news_forum(),
        ] {
            policy.validate().unwrap();
        }
    }

    #[test]
    fn table2_values_match_paper() {
        let p = ReplicationPolicy::conference_page();
        assert_eq!(p.model, ObjectModel::Pram);
        assert_eq!(p.propagation, Propagation::Update);
        assert_eq!(p.store_scope, StoreScope::All);
        assert_eq!(p.write_set, WriteSet::Single);
        assert_eq!(p.initiative, TransferInitiative::Push);
        assert_eq!(p.instant, TransferInstant::Lazy);
        assert_eq!(p.access_transfer, AccessTransfer::Full);
        assert_eq!(p.coherence_transfer, CoherenceTransfer::Partial);
        assert_eq!(p.object_outdate, OutdateReaction::Wait);
        assert_eq!(p.client_outdate, OutdateReaction::Demand);
    }

    #[test]
    fn builder_validates_lazy_period() {
        let err = ReplicationPolicy::builder(ObjectModel::Pram)
            .lazy(Duration::ZERO)
            .build()
            .unwrap_err();
        assert_eq!(err, PolicyError::ZeroLazyPeriod);
    }

    #[test]
    fn invalidate_full_state_is_contradictory() {
        let err = ReplicationPolicy::builder(ObjectModel::Pram)
            .propagation(Propagation::Invalidate)
            .coherence_transfer(CoherenceTransfer::Full)
            .build()
            .unwrap_err();
        assert!(matches!(err, PolicyError::Contradiction(_)));
    }

    #[test]
    fn scope_membership() {
        let p = ReplicationPolicy::builder(ObjectModel::Pram)
            .store_scope(StoreScope::PermanentAndObjectInitiated)
            .build()
            .unwrap();
        assert!(p.in_scope(StoreClass::Permanent));
        assert!(p.in_scope(StoreClass::ObjectInitiated));
        assert!(!p.in_scope(StoreClass::ClientInitiated));
    }

    #[test]
    fn wire_roundtrip() {
        let p = ReplicationPolicy::conference_page();
        let b = globe_wire::to_bytes(&p);
        assert_eq!(globe_wire::from_bytes::<ReplicationPolicy>(&b).unwrap(), p);
    }

    #[test]
    fn display_renders_table2_layout() {
        let s = ReplicationPolicy::conference_page().to_string();
        for needle in [
            "Coherence propagation: update",
            "Store:                 all",
            "Write set:             single",
            "Transfer initiative:   push",
            "lazy (periodic",
            "Access transfer type:  full",
            "Coherence transfer:    partial",
            "Object-outdate:        wait",
            "Client-outdate:        demand",
        ] {
            assert!(s.contains(needle), "missing {needle:?} in:\n{s}");
        }
    }
}
