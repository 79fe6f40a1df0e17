//! Decode differential: random wire formats × random placements × pinned
//! fault plans × every fleet size. One decode pipeline, one answer.
//!
//! The program is fixed — a scan_raw→decode→filter→aggregate pipeline
//! over two encoded datasets — and everything around it is drawn:
//! each dataset's codec / shuffle / byte order / fill sentinel, the
//! per-line host-or-CSD placement, the per-device fault stream, and the
//! shard count. Every combination must
//! produce the clean unsharded reference's `values_fingerprint`: wire
//! decoding is bit-exact everywhere or it is not a storage format.

mod common;

use alang::builtins::Storage;
use alang::value::EncodedVal;
use alang::Value;
use common::contract::{wire, Case, DECODE};
use common::{placements, FaultParams};
use csd_sim::wire::{ByteOrder, Codec, Encoding};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// The pipeline under test: decode both streams, grep, aggregate. Nine
/// lines so placement draws cover host/CSD boundaries inside the decode
/// prefix, between the decodes, and at the reduction tail.
const SOURCE: &str = "\
ra = scan_raw('a')
a = decode(ra)
rb = scan_raw('b')
b = decode(rb)
x = a * 2 + b
m = x > 40
sel = select(x, m)
s = sum(sel)
c = count(m)
";

/// Deterministic patterned payload (compressible, sentinel-bearing).
fn payload(salt: u64, sentinel: Option<f64>) -> Vec<f64> {
    (0..256)
        .map(|i: u64| {
            let h = i.wrapping_mul(97).wrapping_add(salt);
            if h.is_multiple_of(11) {
                sentinel.unwrap_or(0.0)
            } else {
                ((h % 50) as f64) - 4.0
            }
        })
        .collect()
}

fn arb_encoding() -> impl Strategy<Value = Encoding> {
    (
        prop_oneof![Just(Codec::None), Just(Codec::Gzip), Just(Codec::Zlib)],
        any::<bool>(),
        prop_oneof![Just(ByteOrder::Little), Just(ByteOrder::Big)],
        prop_oneof![Just(None), Just(Some(-1.0f64)), Just(Some(f64::NAN))],
    )
        .prop_map(|(codec, shuffle, byte_order, fill_value)| Encoding {
            codec,
            shuffle,
            byte_order,
            fill_value,
        })
}

/// Storage with both streams under the drawn wire formats. Logical rows
/// stay at the materialized length: encoded values replicate rather than
/// shard, so the differential exercises the replication path at every N.
fn storage(enc_a: Encoding, enc_b: Encoding) -> Storage {
    let mut st = Storage::new();
    for (name, salt, enc) in [("a", 3, enc_a), ("b", 11, enc_b)] {
        let data = payload(salt, enc.fill_value);
        st.insert(
            name,
            Value::Encoded(EncodedVal::from_f64s(enc, &data, data.len() as u64)),
        );
    }
    st
}

/// Per-device fault streams: flash and NVMe errors and an optional crash.
fn faults() -> impl Strategy<Value = FaultParams> {
    let crash = prop_oneof![Just(None), (0.0f64..0.05).prop_map(Some)];
    let draws = (0u64..1_000, 0.0f64..0.2, 0.0f64..0.2, crash);
    draws.prop_map(|(seed, flash, nvme, crash)| FaultParams {
        seed,
        flash,
        nvme,
        dma: 0.0,
        crash,
        gc: None,
    })
}

#[test]
fn every_wire_format_produces_one_fingerprint() {
    let on_csd = prop::collection::vec(any::<bool>(), 9..10);
    DECODE.check(
        (arb_encoding(), arb_encoding(), on_csd, faults()),
        |(a, b, on_csd, faults)| {
            let case = Case::new(SOURCE, storage(a, b), placements(&on_csd, on_csd.len()));
            let axis = format!("decode, a: {a:?}, b: {b:?}");
            Ok(case.ran(wire(&axis, &case, &SHARD_COUNTS, &faults)?))
        },
    );
}
