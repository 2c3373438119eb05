//! Authorization: users and segment privileges.
//!
//! §6 lists authorization among the Object Manager's duties and §4.3 notes
//! ST80 "lacks the amenities of a production database system:
//! … database administrator control over replication, authorization and
//! auxiliary structures." Every object carries a [`SegmentId`]; users hold
//! read/write privileges per segment. Segment 0 is the world segment:
//! everyone reads and writes it, so single-user examples stay frictionless.

use gemstone_object::{GemError, GemResult, SegmentId};
use std::collections::{HashMap, HashSet};

/// Access mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    Read,
    Write,
}

#[derive(Debug, Default, Clone)]
struct UserPerms {
    read: HashSet<SegmentId>,
    write: HashSet<SegmentId>,
}

/// The user/privilege table. The distinguished `system` user (the database
/// administrator) passes every check.
#[derive(Debug, Default)]
pub struct AuthTable {
    users: HashMap<String, UserPerms>,
    next_segment: u16,
}

/// The administrator account name.
pub const DBA: &str = "system";

impl AuthTable {
    /// A fresh table with only the administrator.
    pub fn new() -> AuthTable {
        AuthTable { users: HashMap::new(), next_segment: 1 }
    }

    /// Register a user (no privileges beyond the world segment).
    pub fn create_user(&mut self, name: &str) {
        self.users.entry(name.to_string()).or_default();
    }

    /// True if the user exists (the DBA always exists).
    pub fn user_exists(&self, name: &str) -> bool {
        name == DBA || self.users.contains_key(name)
    }

    /// Allocate a fresh protection segment.
    pub fn create_segment(&mut self) -> SegmentId {
        let s = SegmentId(self.next_segment);
        self.next_segment += 1;
        s
    }

    /// Grant a privilege.
    pub fn grant(&mut self, user: &str, segment: SegmentId, access: Access) -> GemResult<()> {
        if user == DBA {
            return Ok(()); // implicit
        }
        let perms = self
            .users
            .get_mut(user)
            .ok_or_else(|| GemError::RuntimeError(format!("no such user {user}")))?;
        match access {
            Access::Read => perms.read.insert(segment),
            Access::Write => perms.write.insert(segment),
        };
        Ok(())
    }

    /// Revoke a privilege.
    pub fn revoke(&mut self, user: &str, segment: SegmentId, access: Access) {
        if let Some(perms) = self.users.get_mut(user) {
            match access {
                Access::Read => perms.read.remove(&segment),
                Access::Write => perms.write.remove(&segment),
            };
        }
    }

    /// True when every access by `user` to `segment` passes without
    /// consulting the table: the administrator, or the world segment.
    pub(crate) fn exempt(user: &str, segment: SegmentId) -> bool {
        user == DBA || segment == SegmentId::SYSTEM
    }

    /// Check an access, erroring with `AuthorizationDenied`.
    pub fn check(&self, user: &str, segment: SegmentId, access: Access) -> GemResult<()> {
        if AuthTable::exempt(user, segment) {
            return Ok(());
        }
        let ok = self.users.get(user).is_some_and(|p| match access {
            Access::Read => p.read.contains(&segment) || p.write.contains(&segment),
            Access::Write => p.write.contains(&segment),
        });
        if ok {
            Ok(())
        } else {
            Err(GemError::AuthorizationDenied {
                segment: segment.0,
                detail: format!("user {user} lacks {access:?} privilege"),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_segment_is_open() {
        let auth = AuthTable::new();
        assert!(auth.check("nobody", SegmentId::SYSTEM, Access::Write).is_ok());
    }

    #[test]
    fn dba_passes_everything() {
        let mut auth = AuthTable::new();
        let seg = auth.create_segment();
        assert!(auth.check(DBA, seg, Access::Write).is_ok());
    }

    #[test]
    fn grants_and_revocations() {
        let mut auth = AuthTable::new();
        auth.create_user("ellen");
        let seg = auth.create_segment();
        assert!(auth.check("ellen", seg, Access::Read).is_err());
        auth.grant("ellen", seg, Access::Read).unwrap();
        assert!(auth.check("ellen", seg, Access::Read).is_ok());
        assert!(auth.check("ellen", seg, Access::Write).is_err());
        auth.grant("ellen", seg, Access::Write).unwrap();
        assert!(auth.check("ellen", seg, Access::Write).is_ok());
        auth.revoke("ellen", seg, Access::Write);
        assert!(auth.check("ellen", seg, Access::Write).is_err());
    }

    #[test]
    fn write_implies_read() {
        let mut auth = AuthTable::new();
        auth.create_user("bob");
        let seg = auth.create_segment();
        auth.grant("bob", seg, Access::Write).unwrap();
        assert!(auth.check("bob", seg, Access::Read).is_ok());
    }

    #[test]
    fn unknown_user_grant_fails() {
        let mut auth = AuthTable::new();
        let seg = auth.create_segment();
        assert!(auth.grant("ghost", seg, Access::Read).is_err());
    }

    #[test]
    fn segments_are_distinct() {
        let mut auth = AuthTable::new();
        assert_ne!(auth.create_segment(), auth.create_segment());
    }
}
