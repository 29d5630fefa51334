//! Property tests over whole tables: build → read round-trips with
//! internal keys (the production key shape), across block sizes, with
//! lower-bound seek semantics checked against a model.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use unikv_common::ikey::{compare_internal_keys, make_internal_key, ValueType};
use unikv_env::mem::MemEnv;
use unikv_env::Env;
use unikv_sstable::{Table, TableBuilder, TableBuilderOptions, TableOptions};

fn build(entries: &BTreeMap<Vec<u8>, Vec<u8>>, block_size: usize, bloom: bool) -> Arc<Table> {
    let env = MemEnv::new();
    let path = Path::new("/t.sst");
    let mut b = TableBuilder::new(
        env.new_writable(path).unwrap(),
        TableBuilderOptions {
            block_size,
            bloom_bits_per_key: bloom.then_some(10),
            ..Default::default()
        },
    );
    for (k, v) in entries {
        b.add(k, v).unwrap();
    }
    let props = b.finish().unwrap();
    Table::open(
        env.new_random_access(path).unwrap(),
        props.file_size,
        TableOptions {
            cmp: compare_internal_keys,
            cache: None,
            io: None,
        },
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn prop_table_roundtrip_internal_keys(
        keys in proptest::collection::btree_set(
            (proptest::collection::vec(any::<u8>(), 1..12), 1u64..1000), 1..120),
        block_size in prop_oneof![Just(64usize), Just(256), Just(1024), Just(4096)],
        bloom in any::<bool>(),
    ) {
        // Distinct (user_key, seq) pairs → distinct internal keys, stored
        // in internal-key order.
        let mut entries: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut sorted: Vec<Vec<u8>> = keys
            .iter()
            .map(|(k, seq)| make_internal_key(k, *seq, ValueType::Value))
            .collect();
        sorted.sort_by(|a, b| compare_internal_keys(a, b));
        sorted.dedup();
        for (i, ik) in sorted.iter().enumerate() {
            entries.insert(ik.clone(), format!("value-{i}").into_bytes());
        }
        // BTreeMap orders by raw bytes, not internal order — rebuild in
        // internal order for the builder.
        let env = MemEnv::new();
        let path = Path::new("/t.sst");
        let mut b = TableBuilder::new(
            env.new_writable(path).unwrap(),
            TableBuilderOptions { block_size, bloom_bits_per_key: bloom.then_some(10), ..Default::default() },
        );
        for ik in &sorted {
            b.add(ik, entries.get(ik).unwrap()).unwrap();
        }
        let props = b.finish().unwrap();
        let table = Table::open(
            env.new_random_access(path).unwrap(),
            props.file_size,
            TableOptions { cmp: compare_internal_keys, cache: None, io: None },
        ).unwrap();

        // Full iteration preserves order and contents.
        let mut it = table.iter(true);
        it.seek_to_first().unwrap();
        for ik in &sorted {
            prop_assert!(it.valid());
            prop_assert_eq!(it.key(), &ik[..]);
            prop_assert_eq!(it.value(), &entries.get(ik).unwrap()[..]);
            it.next().unwrap();
        }
        prop_assert!(!it.valid());

        // Exact-key gets.
        for ik in &sorted {
            let (k, v) = table.get(ik, None).unwrap().unwrap();
            prop_assert_eq!(&k, ik);
            prop_assert_eq!(&v, entries.get(ik).unwrap());
        }

        // Lower-bound seeks agree with the model for arbitrary probes.
        // Sequence 0 sorts after every stored version of its user key, so
        // those probes land in the gap after it, often after a block's
        // last entry.
        let probes = keys.iter().take(20).flat_map(|(k, seq)| [(k, *seq), (k, 0)]);
        for (probe_key, probe_seq) in probes {
            let probe = make_internal_key(probe_key, probe_seq, ValueType::Value);
            let expect = sorted.iter().find(|ik| compare_internal_keys(ik, &probe).is_ge());
            let got = table.get(&probe, None).unwrap();
            match expect {
                Some(ik) => {
                    let (k, _) = got.unwrap();
                    prop_assert_eq!(&k, ik);
                }
                None => prop_assert!(got.is_none()),
            }
        }
        let _ = build; // silence unused when cases shrink
    }
}
