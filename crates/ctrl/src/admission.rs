//! Admission control against an aggregate bandwidth budget and per-tenant
//! quotas.
//!
//! The paper assumes every admitted session can be given its allocation
//! envelope; this module is the piece that *makes* the assumption true: a
//! join is admitted only if its worst-case envelope (the `B_A` of a
//! dedicated session, `4·B_O` for a phased group — the Theorem 14 bound)
//! still fits under both the service-wide budget and the tenant's quota.
//! Committed capacity is released when the session leaves.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Why a join was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// The requested envelope was non-positive or non-finite.
    InvalidDemand(f64),
    /// The service-wide budget cannot cover the envelope.
    BudgetExhausted {
        /// Envelope requested.
        requested: f64,
        /// Budget still uncommitted.
        available: f64,
    },
    /// The tenant's quota cannot cover the envelope.
    QuotaExceeded {
        /// The tenant that asked.
        tenant: String,
        /// Envelope requested.
        requested: f64,
        /// Quota still uncommitted.
        available: f64,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::InvalidDemand(d) => write!(f, "invalid bandwidth demand {d}"),
            AdmissionError::BudgetExhausted {
                requested,
                available,
            } => write!(
                f,
                "budget exhausted: requested {requested}, only {available} uncommitted"
            ),
            AdmissionError::QuotaExceeded {
                tenant,
                requested,
                available,
            } => write!(
                f,
                "tenant {tenant} over quota: requested {requested}, only {available} uncommitted"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// What the controller holds per tenant. The entry carries its own name
/// so a grant can hand the interned `Arc` back from the one lookup.
#[derive(Debug, Clone)]
struct TenantEntry {
    name: Arc<str>,
    committed: f64,
}

/// Tracks committed bandwidth envelopes service-wide and per tenant.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    budget: f64,
    default_quota: f64,
    committed: f64,
    /// Tenants holding capacity; one `Arc<str>` per distinct tenant,
    /// shared with everything that names the tenant.
    tenants: HashMap<Arc<str>, TenantEntry>,
    admitted: u64,
    rejected: u64,
}

impl AdmissionController {
    /// A controller over an aggregate `budget`, with every tenant capped at
    /// `default_quota`.
    pub fn new(budget: f64, default_quota: f64) -> Self {
        AdmissionController {
            budget,
            default_quota,
            committed: 0.0,
            tenants: HashMap::new(),
            admitted: 0,
            rejected: 0,
        }
    }

    /// The entry of `tenant`, which starts being tracked — with `committed`
    /// to its name — if the controller has not seen it (or forgot it).
    fn intern(&mut self, tenant: &str, committed: f64) -> &mut TenantEntry {
        let name: Arc<str> = tenant.into();
        self.tenants
            .entry(name.clone())
            .or_insert(TenantEntry { name, committed })
    }

    /// Budget still uncommitted.
    pub fn available(&self) -> f64 {
        (self.budget - self.committed).max(0.0)
    }

    /// Bandwidth committed to `tenant`.
    pub fn committed_to(&self, tenant: &str) -> f64 {
        self.tenants
            .get(tenant)
            .map_or(0.0, |entry| entry.committed)
    }

    /// Joins admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Joins rejected so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Admits an envelope of `demand` for `tenant`, or explains the
    /// rejection. A float-noise tolerance of one part in 10⁹ keeps repeated
    /// admit/release cycles from leaking capacity.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::InvalidDemand`], [`AdmissionError::BudgetExhausted`]
    /// or [`AdmissionError::QuotaExceeded`].
    pub fn request(&mut self, tenant: &str, demand: f64) -> Result<(), AdmissionError> {
        self.grant(tenant, demand).map(drop)
    }

    /// [`AdmissionController::request`], handing back the tenant's interned
    /// name: one table lookup, and no allocation for a tenant already
    /// holding capacity.
    pub(crate) fn grant(&mut self, tenant: &str, demand: f64) -> Result<Arc<str>, AdmissionError> {
        if !demand.is_finite() || demand <= 0.0 {
            self.rejected += 1;
            return Err(AdmissionError::InvalidDemand(demand));
        }
        let slack = 1e-9 * self.budget.max(1.0);
        if self.committed + demand > self.budget + slack {
            self.rejected += 1;
            return Err(AdmissionError::BudgetExhausted {
                requested: demand,
                available: self.available(),
            });
        }
        let mut entry = self.tenants.get_mut(tenant);
        let used = entry.as_ref().map_or(0.0, |e| e.committed);
        let quota = self.default_quota;
        if used + demand > quota + slack {
            self.rejected += 1;
            return Err(AdmissionError::QuotaExceeded {
                tenant: tenant.to_string(),
                requested: demand,
                available: (quota - used).max(0.0),
            });
        }
        let name = match &mut entry {
            Some(entry) => {
                entry.committed += demand;
                entry.name.clone()
            }
            None => self.intern(tenant, demand).name.clone(),
        };
        self.committed += demand;
        self.admitted += 1;
        Ok(name)
    }

    /// Re-takes an envelope a restored session or group held when its
    /// image was cut: committed without the budget and quota checks it
    /// passed when first granted, and not counted as an admission (the
    /// image's tallies are, by [`AdmissionController::restore_tallies`]).
    /// Returns the tenant's interned name, like a grant.
    pub(crate) fn restore_grant(&mut self, tenant: &str, demand: f64) -> Arc<str> {
        self.committed += demand;
        match self.tenants.get_mut(tenant) {
            Some(entry) => {
                entry.committed += demand;
                entry.name.clone()
            }
            None => self.intern(tenant, demand).name.clone(),
        }
    }

    /// Sets the admitted and rejected counts to a restored image's.
    pub(crate) fn restore_tallies(&mut self, admitted: u64, rejected: u64) {
        self.admitted = admitted;
        self.rejected = rejected;
    }

    /// Undoes a just-granted [`AdmissionController::request`] whose join
    /// could not be delivered to its shard: releases the envelope *and*
    /// retracts the admitted count, so the failed join never shows up in
    /// metrics as admitted.
    pub fn rollback(&mut self, tenant: &str, demand: f64) {
        self.release(tenant, demand);
        self.admitted = self.admitted.saturating_sub(1);
    }

    /// Releases a previously admitted envelope (on leave).
    pub fn release(&mut self, tenant: &str, demand: f64) {
        let demand = demand.max(0.0);
        self.committed = (self.committed - demand).max(0.0);
        if let Some(entry) = self.tenants.get_mut(tenant) {
            entry.committed = (entry.committed - demand).max(0.0);
            if entry.committed <= 0.0 {
                self.tenants.remove(tenant);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_is_enforced() {
        let mut c = AdmissionController::new(100.0, 100.0);
        assert!(c.request("a", 60.0).is_ok());
        assert!(matches!(
            c.request("b", 60.0),
            Err(AdmissionError::BudgetExhausted { .. })
        ));
        assert_eq!(c.available(), 40.0);
        assert_eq!(c.admitted(), 1);
        assert_eq!(c.rejected(), 1);
    }

    #[test]
    fn quotas_bind_per_tenant() {
        let mut c = AdmissionController::new(100.0, 30.0);
        assert!(c.request("a", 30.0).is_ok());
        assert!(matches!(
            c.request("a", 1.0),
            Err(AdmissionError::QuotaExceeded { .. })
        ));
        // Another tenant still fits under the global budget.
        assert!(c.request("b", 30.0).is_ok());
        assert_eq!(c.committed_to("b"), 30.0);
    }

    #[test]
    fn release_restores_capacity() {
        let mut c = AdmissionController::new(64.0, 64.0);
        c.request("a", 64.0).unwrap();
        assert!(c.request("a", 1.0).is_err());
        c.release("a", 64.0);
        assert!(c.request("a", 64.0).is_ok());
        assert_eq!(c.committed_to("a"), 64.0);
    }

    #[test]
    fn repeated_cycles_do_not_leak() {
        let mut c = AdmissionController::new(10.0, 10.0);
        for _ in 0..10_000 {
            c.request("a", 10.0).unwrap();
            c.release("a", 10.0);
        }
        assert!(c.request("a", 10.0).is_ok());
    }

    #[test]
    fn rollback_undoes_the_admit_count() {
        let mut c = AdmissionController::new(100.0, 100.0);
        c.request("a", 40.0).unwrap();
        c.request("a", 40.0).unwrap();
        assert_eq!(c.admitted(), 2);
        c.rollback("a", 40.0);
        assert_eq!(c.admitted(), 1);
        assert_eq!(c.committed_to("a"), 40.0);
        assert_eq!(c.available(), 60.0);
    }

    #[test]
    fn invalid_demands_are_rejected() {
        let mut c = AdmissionController::new(10.0, 10.0);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                c.request("a", bad),
                Err(AdmissionError::InvalidDemand(_))
            ));
        }
        assert_eq!(c.rejected(), 4);
    }
}
