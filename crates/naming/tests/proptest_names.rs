//! Property tests for the naming layer: parse/display round-trips, wire
//! round-trips, prefix laws, and location-service determinism.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test-only crate: clippy's in-tests exemptions cover #[test] bodies, not helpers"
)]

use globe_coherence::StoreClass;
use globe_naming::{ContactRecord, LocationService, NameSpace, ObjectId, ObjectName};
use globe_net::{NodeId, RegionId};
use proptest::prelude::*;

fn arb_component() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9._-]{1,12}".prop_filter("non-empty", |s| !s.is_empty())
}

fn arb_name() -> impl Strategy<Value = ObjectName> {
    proptest::collection::vec(arb_component(), 1..6).prop_map(|parts| {
        format!("/{}", parts.join("/"))
            .parse()
            .expect("generated names are valid")
    })
}

proptest! {
    #[test]
    fn display_parse_roundtrip(name in arb_name()) {
        let rendered = name.to_string();
        let reparsed: ObjectName = rendered.parse().unwrap();
        prop_assert_eq!(reparsed, name);
    }

    #[test]
    fn wire_roundtrip(name in arb_name()) {
        let bytes = globe_wire::to_bytes(&name);
        prop_assert_eq!(globe_wire::from_bytes::<ObjectName>(&bytes).unwrap(), name);
    }

    #[test]
    fn child_extends_prefix(name in arb_name(), component in arb_component()) {
        let child = name.child(&component).unwrap();
        prop_assert!(child.starts_with(&name));
        prop_assert_eq!(child.components().count(), name.components().count() + 1);
    }

    #[test]
    fn garbage_strings_never_panic(s in ".{0,64}") {
        let _ = s.parse::<ObjectName>();
    }

    #[test]
    fn namespace_register_resolve(names in proptest::collection::btree_set(arb_name(), 1..16)) {
        let mut ns = NameSpace::new();
        let mut ids = Vec::new();
        for name in &names {
            ids.push(ns.register(name.clone()).unwrap());
        }
        // All ids distinct; every name resolves back.
        let mut sorted = ids.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), ids.len());
        for (name, id) in names.iter().zip(&ids) {
            prop_assert_eq!(ns.resolve(name).unwrap(), *id);
        }
        // Re-registration always fails.
        for name in &names {
            prop_assert!(ns.register(name.clone()).is_err());
        }
    }

    #[test]
    fn nearest_is_deterministic_and_valid(
        contacts in proptest::collection::vec((0u32..16, 0u8..3, 0u16..4), 1..12),
        from_region in 0u16..4,
    ) {
        let mut ls = LocationService::new();
        let object = ObjectId::new(1);
        for &(node, class, region) in &contacts {
            let class = match class {
                0 => StoreClass::Permanent,
                1 => StoreClass::ObjectInitiated,
                _ => StoreClass::ClientInitiated,
            };
            ls.register(object, ContactRecord {
                node: NodeId::new(node),
                class,
                region: RegionId::new(region),
            });
        }
        let a = ls.nearest(object, RegionId::new(from_region), None).unwrap();
        let b = ls.nearest(object, RegionId::new(from_region), None).unwrap();
        prop_assert_eq!(a, b, "selection must be deterministic");
        prop_assert!(ls.lookup(object).contains(&a));
        // If anything is in the caller's region, the choice must be too.
        let local_exists = ls.lookup(object).iter().any(|r| r.region == RegionId::new(from_region));
        if local_exists {
            prop_assert_eq!(a.region, RegionId::new(from_region));
        }
    }
}
