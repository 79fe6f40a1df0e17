//! `bulk_decode`: 2^18-element (2 MiB decoded) columns generated from the
//! seed and encoded in set-up, decoded through the pre-lowered VM and
//! through `Encoding` directly, with one encode beside the decodes so a
//! table change that helps one side and hurts the other shows.
//! `csd_sim::wire` does the work; planner, executor and sim do none.

use crate::catalogue::Values;
use crate::driver::{Ctx, Round, Trace, Workload, OP_SPAN};
use crate::rng::Rng;
use crate::stats::median_secs;
use crate::workloads::bulk::{BulkProgram, LineKind, KINDS, SERIAL_SPANS};
use alang::value::EncodedVal;
use alang::{ParallelPolicy, Storage, Value};
use csd_sim::wire::{self, ByteOrder, Codec, Encoding};
use isp_workloads::apps::loggrep;

const ELEMS: usize = 1 << 18;
const DECODED_MB: f64 = (ELEMS * 8) as f64 / 1e6;
const ZLIB_SPAN: &str = "csd-sim.wire.decode_zlib_plain";
const ENCODE_SPAN: &str = "csd-sim.wire.encode_gzip_shuffle";

/// In this workload a `decode(..)` line is a thin builtin around
/// `Encoding::decode` per 4096-element chunk: its span belongs to the wire
/// layer, every other line to `lang.builtins`.
const LINE_SPANS: [&str; KINDS] = {
    let mut names = SERIAL_SPANS;
    names[LineKind::Decode as usize] = "csd-sim.wire.vm_decode";
    names
};

pub struct BulkDecode {
    /// TPC-H-6-gz and LogGrep over seeded 2^18-element encoded columns.
    programs: [BulkProgram; 2],
    /// A low-compressibility column, zlib without shuffle, one stream.
    zlib: (Encoding, Vec<f64>, Vec<u8>),
    /// The write side: one Q6 column and the gzip+shuffle stream it must
    /// encode to (whose decode set-up verified).
    gzip: (Encoding, Vec<f64>, Vec<u8>),
    /// The latency stream as one big-endian+shuffle+sentinel stream, for
    /// the direct-decode probe.
    latency: (Encoding, Vec<u8>),
    compression_ratio: f64,
    /// Seed-drawn order of the two programs inside a round.
    order: Vec<usize>,
}

fn column(seed: u64, salt: u64, f: impl Fn(&mut Rng) -> f64) -> Vec<f64> {
    let mut rng = Rng::new(seed, salt);
    (0..ELEMS).map(|_| f(&mut rng)).collect()
}

fn encoded(enc: Encoding, data: &[f64]) -> Value {
    Value::Encoded(EncodedVal::from_f64s(enc, data, data.len() as u64))
}

/// Encodes `data` and checks `decode(encode(x))` is `x` to the bit
/// (sentinel elements excepted: decode masks them to 0).
fn round_trip(enc: Encoding, data: &[f64]) -> Result<Vec<u8>, String> {
    let stream = enc.encode(data);
    let back = enc.decode(&stream)?;
    let same = back.len() == data.len()
        && back.iter().zip(data).all(|(b, x)| {
            let masked = enc.fill_value.is_some_and(|f| f.to_bits() == x.to_bits());
            b.to_bits() == if masked { 0f64.to_bits() } else { x.to_bits() }
        });
    if same {
        Ok(stream)
    } else {
        Err(format!("{enc:?}: decode(encode(x)) differs from x"))
    }
}

impl Workload for BulkDecode {
    const NAME: &'static str = "bulk_decode";
    const DOMINANT_LAYERS: &'static [&'static str] = &["csd-sim.wire"];

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let seed = ctx.seed;
        // The Q6 columns keep the registered generator's cardinalities;
        // only the draw is seeded.
        let gz = Encoding::gzip_shuffled();
        let price = column(seed, 14, |r| 900.0 + r.below(100_000) as f64 / 100.0);
        let q6_columns = [
            (
                "shipdate_gz",
                column(seed, 11, |r| (8400 + r.below(1200)) as f64),
            ),
            (
                "quantity_gz",
                column(seed, 12, |r| (1 + r.below(50)) as f64),
            ),
            (
                "discount_gz",
                column(seed, 13, |r| r.below(11) as f64 / 100.0),
            ),
            ("extendedprice_gz", price.clone()),
        ];
        let mut q6 = Storage::new();
        let mut encoded_bytes = 0u64;
        for (name, data) in &q6_columns {
            let value = EncodedVal::from_f64s(gz, data, data.len() as u64);
            encoded_bytes += value.encoded_actual_bytes();
            q6.insert(*name, Value::Encoded(value));
        }
        let status = column(seed, 15, |r| match r.below(20) {
            0..=13 => 200.0,
            14 | 15 => 301.0,
            16..=18 => 404.0,
            _ => 500.0 + r.below(4) as f64,
        });
        let latency = column(seed, 16, |r| {
            if r.below(10) == 0 {
                -1.0
            } else {
                20.0 + r.below(400) as f64 * 0.5 + r.below(13) as f64 * 0.07
            }
        });
        let mut logs = Storage::new();
        logs.insert("log_status", encoded(loggrep::status_encoding(), &status));
        logs.insert(
            "log_latency",
            encoded(loggrep::latency_encoding(), &latency),
        );
        let source = |name: &str| {
            isp_workloads::by_name(name)
                .map(|w| w.source().to_owned())
                .ok_or_else(|| format!("{name} is not registered"))
        };
        let programs = [
            BulkProgram::build("q6_gz", &source("TPC-H-6-gz")?, q6, ELEMS as u64, 1)?,
            BulkProgram::build("loggrep", &source("LogGrep")?, logs, ELEMS as u64, 2)?,
        ];

        let zlib_enc = Encoding {
            codec: Codec::Zlib,
            shuffle: false,
            byte_order: ByteOrder::Little,
            fill_value: None,
        };
        let noisy = column(seed, 17, |r| r.unit() * 1e6);
        let zlib_stream = round_trip(zlib_enc, &noisy)?;
        let gzip_stream = round_trip(gz, &price)?;
        let latency_enc = loggrep::latency_encoding();
        let latency_stream = round_trip(latency_enc, &latency)?;
        Ok(BulkDecode {
            programs,
            zlib: (zlib_enc, noisy, zlib_stream),
            gzip: (gz, price, gzip_stream),
            latency: (latency_enc, latency_stream),
            compression_ratio: (4 * ELEMS * 8) as f64 / encoded_bytes as f64,
            order: Rng::new(seed, 1).permutation(2),
        })
    }

    fn round(&mut self, ctx: &Ctx) -> Round {
        let spans = &ctx.spans;
        let mut round = Round::default();
        for &i in &self.order {
            let program = &self.programs[i];
            let _op = spans.enter(OP_SPAN);
            let (ok, _) = program.run(spans, ParallelPolicy::serial(), &LINE_SPANS);
            round.op(ok);
        }
        {
            let _op = spans.enter(OP_SPAN);
            let (enc, data, stream) = &self.zlib;
            let decoded = spans.time(ZLIB_SPAN, || enc.decode(stream));
            round.op(decoded.is_ok_and(|d| {
                d.len() == data.len() && d.iter().zip(data).all(|(a, b)| a.to_bits() == b.to_bits())
            }));
        }
        {
            let _op = spans.enter(OP_SPAN);
            let (enc, data, stream) = &self.gzip;
            let encoded = spans.time(ENCODE_SPAN, || enc.encode(data));
            round.op(&encoded == stream);
        }
        round
            .exact
            .insert("csd-sim.wire.compression_ratio", self.compression_ratio);
        round
    }

    fn layers(&mut self, _ctx: &Ctx, trace: &Trace, out: &mut Values) {
        let vm_decode = trace.totals(LINE_SPANS[LineKind::Decode as usize]);
        let decode_lines: u64 = self
            .programs
            .iter()
            .map(|p| p.elems_by_kind()[LineKind::Decode as usize])
            .sum();
        out.insert(
            "lang.builtins.melem_per_s.decode",
            (decode_lines * trace.rounds) as f64 / vm_decode.total_secs() / 1e6,
        );
        let zlib = trace.totals(ZLIB_SPAN);
        out.insert(
            "csd-sim.wire.decode_mb_per_s.zlib_plain",
            DECODED_MB * zlib.count as f64 / zlib.total_secs(),
        );

        // The stages of the codec on the set-up's own byte streams.
        let mb_per_s = |f: &dyn Fn()| DECODED_MB / median_secs(7, f);
        let (gz, price, gzip_stream) = &self.gzip;
        let le_bytes: Vec<u8> = price.iter().flat_map(|x| x.to_le_bytes()).collect();
        let shuffled = wire::shuffle(&le_bytes, 8);
        let deflated = wire::deflate(&shuffled);
        out.insert(
            "csd-sim.wire.inflate_mb_per_s",
            mb_per_s(&|| {
                std::hint::black_box(wire::inflate(&deflated)).ok();
            }),
        );
        out.insert(
            "csd-sim.wire.deflate_mb_per_s",
            mb_per_s(&|| {
                std::hint::black_box(wire::deflate(&shuffled));
            }),
        );
        out.insert(
            "csd-sim.wire.unshuffle_mb_per_s",
            mb_per_s(&|| {
                std::hint::black_box(wire::unshuffle(&shuffled, 8));
            }),
        );
        out.insert(
            "csd-sim.wire.crc32_mb_per_s",
            mb_per_s(&|| {
                std::hint::black_box(wire::crc32(&shuffled));
            }),
        );
        out.insert(
            "csd-sim.wire.decode_mb_per_s.gzip_shuffle",
            mb_per_s(&|| {
                std::hint::black_box(gz.decode(gzip_stream)).ok();
            }),
        );
        let (latency_enc, latency_stream) = &self.latency;
        out.insert(
            "csd-sim.wire.decode_mb_per_s.be_shuffle_fill",
            mb_per_s(&|| {
                std::hint::black_box(latency_enc.decode(latency_stream)).ok();
            }),
        );
        out.insert(
            "csd-sim.wire.decode_mb_per_s.raw",
            mb_per_s(&|| {
                std::hint::black_box(Encoding::raw().decode(&le_bytes)).ok();
            }),
        );
    }
}
