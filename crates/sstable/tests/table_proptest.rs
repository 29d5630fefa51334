//! Property tests over whole tables: build → read round-trips with
//! internal keys (the production key shape), across block sizes, with
//! lower-bound seek semantics checked against a model; and point reads
//! through a record directory checked against the block path.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use unikv_common::ikey::{
    compare_internal_keys, extract_user_key, make_internal_key, ValueType, MAX_SEQUENCE_NUMBER,
};
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

    /// A table written with a record directory answers every point read
    /// through single records as the block path does: each stored version
    /// at its own sequence, each user key's newest version at the top
    /// sequence, and nothing (or another user key) for absent keys. Its
    /// blocks still iterate as ordinary blocks, and the directory checks
    /// out against them.
    #[test]
    fn prop_record_directory_matches_block_path(
        keys in proptest::collection::btree_set(
            (proptest::collection::vec(any::<u8>(), 1..12), 1u64..4), 1..200),
        absent in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..12), 0..40),
        block_size in prop_oneof![Just(64usize), Just(256), Just(1024), Just(4096)],
        value_len in prop_oneof![Just(0usize), Just(8), Just(200)],
    ) {
        let mut sorted: Vec<Vec<u8>> = keys
            .iter()
            .map(|(k, seq)| make_internal_key(k, *seq, ValueType::Value))
            .collect();
        sorted.sort_by(|a, b| compare_internal_keys(a, b));
        let value = |i: usize| format!("v{i}-").repeat(value_len / 3 + 1).into_bytes();
        let env = MemEnv::new();
        let mut tables = Vec::new();
        for (path, record_directory) in [("/dir.sst", true), ("/plain.sst", false)] {
            let path = Path::new(path);
            let mut b = TableBuilder::new(
                env.new_writable(path).unwrap(),
                TableBuilderOptions {
                    block_size,
                    filter_key: extract_user_key,
                    record_directory,
                    ..Default::default()
                },
            );
            for (i, ik) in sorted.iter().enumerate() {
                b.add(ik, &value(i)).unwrap();
            }
            let props = b.finish().unwrap();
            let table = Table::open(
                env.new_random_access(path).unwrap(),
                props.file_size,
                TableOptions { cmp: compare_internal_keys, cache: None, io: None },
            ).unwrap();
            prop_assert_eq!(table.has_record_directory(), record_directory);
            prop_assert_eq!(table.verify_record_directory(extract_user_key).unwrap(), record_directory);
            tables.push(table);
        }
        let (dir, plain) = (&tables[0], &tables[1]);

        let mut it = dir.iter(true);
        it.seek_to_first().unwrap();
        for (i, ik) in sorted.iter().enumerate() {
            prop_assert!(it.valid());
            prop_assert_eq!(it.key(), &ik[..]);
            prop_assert_eq!(it.value(), &value(i)[..]);
            it.next().unwrap();
        }
        prop_assert!(!it.valid());

        // What a point read must answer: the first entry >= the probe if
        // it belongs to the probe's user key.
        let expect = |probe: &[u8]| {
            sorted.iter().position(|ik| compare_internal_keys(ik, probe).is_ge())
                .filter(|&i| extract_user_key(&sorted[i]) == extract_user_key(probe))
                .map(|i| (sorted[i].clone(), value(i)))
        };
        let same_user = |got: Option<(Vec<u8>, Vec<u8>)>, probe: &[u8]| {
            got.filter(|(k, _)| extract_user_key(k) == extract_user_key(probe))
        };
        let probes = sorted.iter().cloned()
            .chain(keys.iter().map(|(k, _)| make_internal_key(k, MAX_SEQUENCE_NUMBER, ValueType::Value)))
            .chain(keys.iter().map(|(k, _)| make_internal_key(k, 0, ValueType::Value)))
            .chain(absent.iter().map(|k| make_internal_key(k, MAX_SEQUENCE_NUMBER, ValueType::Value)));
        for probe in probes {
            let user = extract_user_key(&probe);
            let want = expect(&probe);
            prop_assert_eq!(same_user(dir.get(&probe, Some(user)).unwrap(), &probe), want.clone());
            prop_assert_eq!(same_user(plain.get(&probe, Some(user)).unwrap(), &probe), want.clone());
            prop_assert_eq!(same_user(dir.get(&probe, None).unwrap(), &probe), want);
        }
    }
}
