//! The bit-at-a-time decoder and the single-pass encoder `wire.rs` used
//! to ship, kept as test oracles (the `sum8_ref` convention), and the
//! differential suite that holds the codec to them: the decoder gives the
//! same bytes or both `Err`, never a panic, never more output than the
//! bound; the encoder gives the same bytes.

use super::*;

// ---------------------------------------------------------------------------
// Reference decoder: one bit per call, one code length per bit, one push
// per byte. Slow and obviously RFC 1951.
// ---------------------------------------------------------------------------

struct RefBitReader<'a> {
    data: &'a [u8],
    byte: usize,
    bit: u32,
}

impl RefBitReader<'_> {
    fn bit(&mut self) -> Result<u32, String> {
        let Some(&b) = self.data.get(self.byte) else {
            return Err("deflate stream truncated".to_owned());
        };
        let v = u32::from(b >> self.bit) & 1;
        self.bit += 1;
        if self.bit == 8 {
            self.bit = 0;
            self.byte += 1;
        }
        Ok(v)
    }

    fn bits(&mut self, n: u32) -> Result<u32, String> {
        let mut v = 0u32;
        for i in 0..n {
            v |= self.bit()? << i;
        }
        Ok(v)
    }

    fn align_byte(&mut self) {
        if self.bit != 0 {
            self.bit = 0;
            self.byte += 1;
        }
    }
}

/// Canonical Huffman decoder: symbols sorted by (length, symbol index),
/// walked one length at a time.
struct RefHuffman {
    /// `count[l]` = number of codes of length `l`.
    count: [u16; 16],
    /// Symbols ordered canonically.
    symbols: Vec<u16>,
}

impl RefHuffman {
    fn from_lengths(lengths: &[u8]) -> Result<RefHuffman, String> {
        let mut count = [0u16; 16];
        for &l in lengths {
            if l > 15 {
                return Err(format!("huffman code length {l} > 15"));
            }
            count[usize::from(l)] += 1;
        }
        count[0] = 0;
        let mut left = 1i32;
        for &c in &count[1..16] {
            left = (left << 1) - i32::from(c);
            if left < 0 {
                return Err("over-subscribed huffman code".to_owned());
            }
        }
        let mut offsets = [0u16; 16];
        for l in 1..15 {
            offsets[l + 1] = offsets[l] + count[l];
        }
        let mut symbols = vec![0u16; lengths.len()];
        for (sym, &l) in lengths.iter().enumerate() {
            if l != 0 {
                let o = &mut offsets[usize::from(l)];
                symbols[usize::from(*o)] = sym as u16;
                *o += 1;
            }
        }
        Ok(RefHuffman { count, symbols })
    }

    /// Decodes one symbol, reading bits MSB-of-code-first.
    fn decode(&self, r: &mut RefBitReader) -> Result<u16, String> {
        let (mut code, mut first, mut index) = (0i32, 0i32, 0i32);
        for l in 1..16 {
            code |= r.bit()? as i32;
            let cnt = i32::from(self.count[l]);
            if code - first < cnt {
                return Ok(self.symbols[(index + code - first) as usize]);
            }
            index += cnt;
            first = (first + cnt) << 1;
            code <<= 1;
        }
        Err("invalid huffman code".to_owned())
    }
}

/// [`inflate_bounded`] as it was before the rewrite, with the same
/// contract: output, bytes of `data` consumed, `max_out` a hard cap.
fn inflate_ref(data: &[u8], max_out: usize) -> Result<(Vec<u8>, usize), String> {
    let mut r = RefBitReader {
        data,
        byte: 0,
        bit: 0,
    };
    let mut out = Vec::new();
    loop {
        let last = r.bits(1)?;
        match r.bits(2)? {
            0 => {
                r.align_byte();
                let len = r.bits(16)? as usize;
                let nlen = r.bits(16)? as usize;
                if len != (!nlen & 0xFFFF) {
                    return Err("stored block LEN/NLEN mismatch".to_owned());
                }
                for _ in 0..len {
                    ref_push(&mut out, r.bits(8)? as u8, max_out)?;
                }
            }
            1 => {
                let lit = RefHuffman::from_lengths(&fixed_lit_lengths())?;
                let dist = RefHuffman::from_lengths(&[5u8; 30])?;
                ref_block(&mut r, &lit, &dist, &mut out, max_out)?;
            }
            2 => {
                let (lit, dist) = ref_dynamic_tables(&mut r)?;
                ref_block(&mut r, &lit, &dist, &mut out, max_out)?;
            }
            _ => return Err("reserved deflate block type 3".to_owned()),
        }
        if last == 1 {
            return Ok((out, r.byte + usize::from(r.bit != 0)));
        }
    }
}

fn ref_push(out: &mut Vec<u8>, b: u8, max_out: usize) -> Result<(), String> {
    if out.len() >= max_out {
        return Err("deflate output exceeds declared size".to_owned());
    }
    out.push(b);
    Ok(())
}

fn ref_dynamic_tables(r: &mut RefBitReader) -> Result<(RefHuffman, RefHuffman), String> {
    let hlit = r.bits(5)? as usize + 257;
    let hdist = r.bits(5)? as usize + 1;
    let hclen = r.bits(4)? as usize + 4;
    let mut cl_lengths = [0u8; 19];
    for &pos in CLCL_ORDER.iter().take(hclen) {
        cl_lengths[pos] = r.bits(3)? as u8;
    }
    let cl = RefHuffman::from_lengths(&cl_lengths)?;
    let mut lengths = Vec::with_capacity(hlit + hdist);
    while lengths.len() < hlit + hdist {
        match cl.decode(r)? {
            sym @ 0..=15 => lengths.push(sym as u8),
            16 => {
                let &prev = lengths.last().ok_or("repeat with no previous length")?;
                let n = r.bits(2)? + 3;
                lengths.extend(std::iter::repeat_n(prev, n as usize));
            }
            17 => {
                let n = r.bits(3)? + 3;
                lengths.extend(std::iter::repeat_n(0u8, n as usize));
            }
            18 => {
                let n = r.bits(7)? + 11;
                lengths.extend(std::iter::repeat_n(0u8, n as usize));
            }
            other => return Err(format!("invalid code-length symbol {other}")),
        }
    }
    if lengths.len() != hlit + hdist {
        return Err("code-length run overflows the table".to_owned());
    }
    let lit = RefHuffman::from_lengths(&lengths[..hlit])?;
    let dist = RefHuffman::from_lengths(&lengths[hlit..])?;
    Ok((lit, dist))
}

fn ref_block(
    r: &mut RefBitReader,
    lit: &RefHuffman,
    dist: &RefHuffman,
    out: &mut Vec<u8>,
    max_out: usize,
) -> Result<(), String> {
    loop {
        match lit.decode(r)? {
            sym @ 0..=255 => ref_push(out, sym as u8, max_out)?,
            256 => return Ok(()),
            sym @ 257..=285 => {
                let i = usize::from(sym - 257);
                let len = usize::from(LEN_BASE[i]) + r.bits(u32::from(LEN_EXTRA[i]))? as usize;
                let d = usize::from(dist.decode(r)?);
                if d >= 30 {
                    return Err(format!("invalid distance symbol {d}"));
                }
                let distance =
                    usize::from(DIST_BASE[d]) + r.bits(u32::from(DIST_EXTRA[d]))? as usize;
                if distance > out.len() {
                    return Err("back-reference before stream start".to_owned());
                }
                let start = out.len() - distance;
                for k in 0..len {
                    ref_push(out, out[start + k], max_out)?;
                }
            }
            other => return Err(format!("invalid literal/length symbol {other}")),
        }
    }
}

/// [`gzip_decompress`] over the reference inflate and the byte-wise CRC.
fn gzip_ref(stream: &[u8], max_out: usize) -> Result<Vec<u8>, String> {
    let (body, want_crc, want_len) = gzip_frame(stream)?;
    if want_len > max_out {
        return Err("ISIZE over the bound".to_owned());
    }
    let (out, used) = inflate_ref(body, want_len)?;
    if used != body.len() || out.len() != want_len || crc32_ref(&out) != want_crc {
        return Err("body, ISIZE or CRC32 mismatch".to_owned());
    }
    Ok(out)
}

/// [`zlib_decompress`] over the reference inflate.
fn zlib_ref(stream: &[u8], max_out: usize) -> Result<Vec<u8>, String> {
    let (body, want) = zlib_frame(stream)?;
    let (out, used) = inflate_ref(body, max_out)?;
    if used != body.len() || adler32(&out) != want {
        return Err("body or Adler32 mismatch".to_owned());
    }
    Ok(out)
}

/// CRC-32 one byte at a time, one bit at a time: no table to get wrong.
fn crc32_ref(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

// ---------------------------------------------------------------------------
// Reference encoder: one pass that inserts each position into the hash
// chains as the parse passes it.
// ---------------------------------------------------------------------------

/// [`deflate`] as it was before the chains moved into a pass of their own.
fn deflate_ref(data: &[u8]) -> Vec<u8> {
    assert!(
        data.len() < NIL as usize,
        "deflate input must be under 4 GiB"
    );
    let mut w = BitWriter::default();
    w.put(1, 1); // final block
    w.put(1, 2); // fixed Huffman
    let put_lit = |w: &mut BitWriter, sym: usize| {
        let (code, len) = FIXED_LIT[sym];
        w.put(u32::from(code), u32::from(len));
    };

    let mut head = vec![NIL; 0x8000];
    let mut prev = vec![NIL; data.len()];
    let mut i = 0usize;
    while i < data.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= data.len() {
            let limit = (data.len() - i).min(MAX_MATCH);
            let mut cand = head[hash3(data, i)];
            let mut chain = 0usize;
            while cand != NIL && i - cand as usize <= WINDOW && chain < MAX_CHAIN {
                let c = cand as usize;
                // Only a candidate that also matches at `best_len` can
                // be strictly longer than the best so far.
                if data[c + best_len] == data[i + best_len] {
                    let l = match_len(data, c, i, limit);
                    if l > best_len {
                        best_len = l;
                        best_dist = i - c;
                        if l == limit {
                            break;
                        }
                    }
                }
                cand = prev[c];
                chain += 1;
            }
        }
        if best_len >= MIN_MATCH {
            // Length symbol + extra bits.
            let li = usize::from(LEN_SYM[best_len]);
            put_lit(&mut w, 257 + li);
            w.put(
                (best_len - usize::from(LEN_BASE[li])) as u32,
                u32::from(LEN_EXTRA[li]),
            );
            // Distance symbol (5-bit fixed code) + extra bits.
            let di = dist_symbol(best_dist);
            w.put((di as u32).reverse_bits() >> 27, 5);
            w.put(
                (best_dist - usize::from(DIST_BASE[di])) as u32,
                u32::from(DIST_EXTRA[di]),
            );
            // Insert every covered position into the hash chains.
            let end = (i + best_len).min(data.len().saturating_sub(MIN_MATCH - 1));
            for (off, slot) in prev[i..end].iter_mut().enumerate() {
                let h = hash3(data, i + off);
                *slot = head[h];
                head[h] = (i + off) as u32;
            }
            i += best_len;
        } else {
            put_lit(&mut w, usize::from(data[i]));
            if i + MIN_MATCH <= data.len() {
                let h = hash3(data, i);
                prev[i] = head[h];
                head[h] = i as u32;
            }
            i += 1;
        }
    }
    put_lit(&mut w, 256); // end of block
    w.finish()
}

/// [`Encoding::decode`] as the three-pass pipeline it used to be:
/// inflate, un-shuffle into a second buffer, then convert and mask.
fn decode_ref(enc: &Encoding, stream: &[u8], max_bytes: usize) -> Result<Vec<f64>, String> {
    let bytes = match enc.codec {
        Codec::Gzip => gzip_ref(stream, max_bytes)?,
        Codec::Zlib => zlib_ref(stream, max_bytes)?,
        Codec::None => stream.to_vec(),
    };
    if bytes.len() % 8 != 0 || bytes.len() > max_bytes {
        return Err("not f64-aligned or over the bound".to_owned());
    }
    let bytes = if enc.shuffle {
        unshuffle(&bytes, 8)
    } else {
        bytes
    };
    let fill_bits = enc.fill_value.map(f64::to_bits);
    Ok(bytes
        .chunks_exact(8)
        .map(|lane| {
            let raw: [u8; 8] = lane.try_into().expect("chunks_exact(8)");
            let x = match enc.byte_order {
                ByteOrder::Little => f64::from_le_bytes(raw),
                ByteOrder::Big => f64::from_be_bytes(raw),
            };
            if fill_bits == Some(x.to_bits()) {
                0.0
            } else {
                x
            }
        })
        .collect())
}

// ---------------------------------------------------------------------------
// Test-side stream assembly
// ---------------------------------------------------------------------------

impl BitWriter {
    /// Writes a canonical Huffman code of length `n`: deflate packs
    /// codes from their most significant bit, so the code is
    /// bit-reversed before the LSB-first write.
    pub(super) fn put_code(&mut self, code: u32, n: u32) {
        self.put(code.reverse_bits() >> (32 - n), n);
    }

    fn align_byte(&mut self) {
        self.put(0, (8 - self.nbits % 8) % 8);
    }
}

/// Canonical code assignment (code value per symbol) from lengths —
/// the encoder-side twin of [`Huffman::from_lengths`].
pub(super) fn canonical_codes(lengths: &[u8]) -> Vec<u32> {
    let mut count = [0u32; 16];
    for &l in lengths {
        count[usize::from(l)] += 1;
    }
    count[0] = 0;
    let mut next = [0u32; 16];
    let mut code = 0u32;
    for l in 1..16 {
        code = (code + count[l - 1]) << 1;
        next[l] = code;
    }
    lengths
        .iter()
        .map(|&l| {
            if l == 0 {
                0
            } else {
                let c = next[usize::from(l)];
                next[usize::from(l)] += 1;
                c
            }
        })
        .collect()
}

/// One LZ77 token of a hand-assembled block.
#[derive(Clone, Copy)]
enum Token {
    Lit(u8),
    Match { len: usize, dist: usize },
}

/// What a token sequence decodes to, appended to `out` — the third,
/// trivial implementation both decoders are compared with.
fn expand(tokens: &[Token], out: &mut Vec<u8>) {
    for &t in tokens {
        match t {
            Token::Lit(b) => out.push(b),
            Token::Match { len, dist } => {
                for _ in 0..len {
                    out.push(out[out.len() - dist]);
                }
            }
        }
    }
}

/// Writes `tokens` and an end-of-block under the given code lengths
/// (the length and distance symbols found by scanning the base tables,
/// as the encoder did before it had lookup tables).
fn put_tokens(w: &mut BitWriter, lit_lengths: &[u8], dist_lengths: &[u8], tokens: &[Token]) {
    let lit_codes = canonical_codes(lit_lengths);
    let dist_codes = canonical_codes(dist_lengths);
    let put_lit = |w: &mut BitWriter, sym: usize| {
        assert_ne!(
            lit_lengths[sym], 0,
            "literal/length symbol {sym} has no code"
        );
        w.put_code(lit_codes[sym], u32::from(lit_lengths[sym]));
    };
    for &t in tokens {
        match t {
            Token::Lit(b) => put_lit(w, usize::from(b)),
            Token::Match { len, dist } => {
                let li = LEN_BASE
                    .iter()
                    .rposition(|&b| usize::from(b) <= len)
                    .expect("len >= 3");
                put_lit(w, 257 + li);
                w.put(
                    (len - usize::from(LEN_BASE[li])) as u32,
                    u32::from(LEN_EXTRA[li]),
                );
                let di = DIST_BASE
                    .iter()
                    .rposition(|&b| usize::from(b) <= dist)
                    .expect("dist >= 1");
                assert_ne!(dist_lengths[di], 0, "distance symbol {di} has no code");
                w.put_code(dist_codes[di], u32::from(dist_lengths[di]));
                w.put(
                    (dist - usize::from(DIST_BASE[di])) as u32,
                    u32::from(DIST_EXTRA[di]),
                );
            }
        }
    }
    put_lit(w, 256);
}

fn put_fixed_block(w: &mut BitWriter, tokens: &[Token], last: bool) {
    w.put(u32::from(last), 1);
    w.put(1, 2);
    put_tokens(w, &fixed_lit_lengths(), &[5u8; 30], tokens);
}

/// A dynamic block header that spells every code length out with a flat
/// 4-bit code-length code (no run-length symbols).
fn put_dynamic_header(w: &mut BitWriter, lit_lengths: &[u8], dist_lengths: &[u8], last: bool) {
    w.put(u32::from(last), 1);
    w.put(2, 2);
    w.put(lit_lengths.len() as u32 - 257, 5);
    w.put(dist_lengths.len() as u32 - 1, 5);
    w.put(15, 4); // HCLEN = 19
    let mut cl_lengths = [0u8; 19];
    cl_lengths[..16].fill(4);
    for &pos in &CLCL_ORDER {
        w.put(u32::from(cl_lengths[pos]), 3);
    }
    let cl_codes = canonical_codes(&cl_lengths);
    for &l in lit_lengths.iter().chain(dist_lengths) {
        w.put_code(cl_codes[usize::from(l)], 4);
    }
}

fn put_dynamic_block(
    w: &mut BitWriter,
    lit_lengths: &[u8],
    dist_lengths: &[u8],
    tokens: &[Token],
    last: bool,
) {
    put_dynamic_header(w, lit_lengths, dist_lengths, last);
    put_tokens(w, lit_lengths, dist_lengths, tokens);
}

fn put_stored_block(w: &mut BitWriter, payload: &[u8], last: bool) {
    w.put(u32::from(last), 1);
    w.put(0, 2);
    w.align_byte();
    w.put(payload.len() as u32, 16);
    w.put(!(payload.len() as u32) & 0xFFFF, 16);
    for &b in payload {
        w.put(u32::from(b), 8);
    }
}

/// Literal/length code lengths with 2..=15-bit literals `B..=O`, a
/// 1-bit length symbol 257 and a 15-bit end-of-block: a complete set
/// whose longest codes fill the whole 2^15 table.
fn long_code_lit_lengths() -> Vec<u8> {
    let mut lengths = vec![0u8; 258];
    for (l, sym) in (b'B'..=b'O').enumerate() {
        lengths[usize::from(sym)] = l as u8 + 2;
    }
    lengths[256] = 15;
    lengths[257] = 1;
    lengths
}

fn long_code_tokens() -> Vec<Token> {
    let mut tokens: Vec<Token> = (b'B'..=b'O').rev().map(Token::Lit).collect();
    tokens.push(Token::Match { len: 3, dist: 1 });
    tokens.extend((b'B'..=b'O').map(Token::Lit));
    tokens
}

// ---------------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------------

/// SplitMix64: every case below is a pure function of its printed seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Patterned,
    LowCardinality,
    Incompressible,
}

const KINDS: [Kind; 3] = [Kind::Patterned, Kind::LowCardinality, Kind::Incompressible];

fn input(kind: Kind, n: usize, seed: u64) -> Vec<u8> {
    let mut rng = Rng(seed);
    let period = 1 + rng.below(40);
    (0..n)
        .map(|i| match kind {
            Kind::Patterned => ((i / period) % 251) as u8,
            Kind::LowCardinality => b"ACGTN\n"[rng.below(6)],
            Kind::Incompressible => rng.next() as u8,
        })
        .collect()
}

/// The byte generator the pinned encoder digests and the embedded zlib
/// streams were made with (`s = s * 6364136223846793005 +
/// 1442695040888963407`, byte `(s >> 33) % card`).
fn lcg_bytes(n: usize, mut s: u64, card: u64) -> Vec<u8> {
    (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((s >> 33) % card) as u8
        })
        .collect()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn unhex(rows: &[&str]) -> Vec<u8> {
    let digits: Vec<u8> = rows.iter().flat_map(|r| r.bytes()).collect();
    digits
        .chunks_exact(2)
        .map(|d| {
            let hex = std::str::from_utf8(d).expect("ascii");
            u8::from_str_radix(hex, 16).expect("hex digit pair")
        })
        .collect()
}

/// Asserts both decoders agree on a raw stream and returns what they said.
fn both(stream: &[u8], max_out: usize, what: &str) -> Result<(Vec<u8>, usize), String> {
    let new = inflate_bounded(stream, max_out);
    let old = inflate_ref(stream, max_out);
    match (&new, &old) {
        (Ok(n), Ok(o)) => assert_eq!(n, o, "{what}: decoders disagree"),
        (Err(_), Err(_)) => {}
        _ => panic!("{what}: table decoder {new:?}, oracle {old:?}"),
    }
    if let Ok((out, used)) = &new {
        assert!(out.len() <= max_out, "{what}: output over the bound");
        assert!(
            out.capacity() <= max_out,
            "{what}: allocation over the bound"
        );
        assert!(*used <= stream.len(), "{what}: consumed past the end");
    }
    new
}

// ---------------------------------------------------------------------------
// (a) Round trips across the refill and window boundaries
// ---------------------------------------------------------------------------

#[test]
fn round_trips_agree_with_the_oracle_at_every_boundary() {
    let mut rng = Rng(0x0A_5EED);
    let mut lengths: Vec<usize> = (0..=40).collect();
    lengths.extend([
        63, 64, 65, 255, 256, 257, 258, 259, 4095, 4096, 4097, 32_767, 32_768, 32_769, 33_027,
        65_535, 65_536, 65_537, 70_000,
    ]);
    lengths.extend((0..9).map(|_| rng.below(70_000)));
    for (case, &n) in lengths.iter().enumerate() {
        for kind in KINDS {
            let seed = 0xA000 + case as u64;
            let what = format!("{kind:?} n={n} seed={seed:#x}");
            let data = input(kind, n, seed);
            let packed = deflate(&data);
            let (out, used) = both(&packed, n, &what).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(out, data, "{what}");
            assert_eq!(used, packed.len(), "{what}: stream not consumed whole");
            assert_eq!(inflate(&packed).as_ref(), Ok(&data), "{what}");
            if n > 0 {
                assert!(
                    inflate_bounded(&packed, n - 1).is_err(),
                    "{what}: cap ignored"
                );
            }
            assert_eq!(gzip_decompress(&gzip_compress(&data), n), Ok(data.clone()));
            assert_eq!(zlib_decompress(&zlib_compress(&data), n), Ok(data));
        }
    }
}

// ---------------------------------------------------------------------------
// (b) Mutation fuzz: >= 10 000 byte-mutated and truncated streams
// ---------------------------------------------------------------------------

/// Pinned: the acceptance floor is 10 000 cases with zero panics and
/// zero oracle disagreements.
const FUZZ_CASES: u64 = 10_000;

#[derive(Clone, Copy, PartialEq, Debug)]
enum Framing {
    Raw,
    Gzip,
    Zlib,
}

fn fuzz_corpus() -> Vec<(Framing, Vec<u8>, usize)> {
    let mut corpus = Vec::new();
    for (i, &n) in [0usize, 1, 9, 60, 300, 1500, 5000].iter().enumerate() {
        for kind in KINDS {
            let data = input(kind, n, 0xB000 + i as u64);
            corpus.push((Framing::Raw, deflate(&data), n));
            corpus.push((Framing::Gzip, gzip_compress(&data), n));
            corpus.push((Framing::Zlib, zlib_compress(&data), n));
        }
    }
    corpus.push((Framing::Zlib, unhex(ZLIB_L9), zlib_rows(0, 60).len()));
    corpus.push((Framing::Raw, unhex(RAW_MULTI), raw_multi_plain().len()));
    corpus.push((Framing::Gzip, unhex(GZIP_FNAME), zlib_rows(7, 40).len()));
    let mut w = BitWriter::default();
    put_stored_block(&mut w, b"stored ", false);
    put_dynamic_block(
        &mut w,
        &long_code_lit_lengths(),
        &[1],
        &long_code_tokens(),
        true,
    );
    corpus.push((Framing::Raw, w.finish(), 64));
    corpus
}

fn mutate(stream: &mut Vec<u8>, rng: &mut Rng) {
    match rng.below(6) {
        // Flip one to three bytes.
        0 | 1 => {
            for _ in 0..=rng.below(3) {
                if !stream.is_empty() {
                    let at = rng.below(stream.len());
                    stream[at] ^= 1 + rng.below(255) as u8;
                }
            }
        }
        // Truncate.
        2 => stream.truncate(rng.below(stream.len() + 1)),
        // Truncate, then flip a byte of what is left.
        3 => {
            stream.truncate(rng.below(stream.len() + 1));
            if !stream.is_empty() {
                let at = rng.below(stream.len());
                stream[at] ^= 1 << rng.below(8);
            }
        }
        // Insert a stray byte (a body that ends late).
        4 => {
            let at = rng.below(stream.len() + 1);
            stream.insert(at, rng.next() as u8);
        }
        // Copy one range of the stream over another.
        _ => {
            if stream.len() >= 2 {
                let len = 1 + rng.below(stream.len() / 2);
                let from = rng.below(stream.len() - len + 1);
                let to = rng.below(stream.len() - len + 1);
                stream.copy_within(from..from + len, to);
            }
        }
    }
}

#[test]
fn mutated_and_truncated_streams_never_split_the_decoders() {
    let corpus = fuzz_corpus();
    let (mut agreed_ok, mut agreed_err) = (0u64, 0u64);
    for case in 0..FUZZ_CASES {
        let seed = 0xF0_0000 + case;
        let mut rng = Rng(seed);
        let (framing, base, plain_len) = &corpus[rng.below(corpus.len())];
        let mut stream = base.clone();
        mutate(&mut stream, &mut rng);
        // Mostly the true size; sometimes tighter, sometimes looser.
        let max_out = match rng.below(4) {
            0 => plain_len / 2,
            1 => plain_len + 1 + rng.below(4096),
            _ => *plain_len,
        };
        let what = format!("fuzz seed {seed:#x} ({framing:?}, bound {max_out})");
        // (bytes, consumed); a framed stream is consumed whole or not at all.
        let whole = |out: Vec<u8>| (out, stream.len());
        let new = std::panic::catch_unwind(|| match framing {
            Framing::Raw => inflate_bounded(&stream, max_out),
            Framing::Gzip => gzip_decompress(&stream, max_out).map(whole),
            Framing::Zlib => zlib_decompress(&stream, max_out).map(whole),
        })
        .unwrap_or_else(|_| panic!("{what}: table decoder panicked"));
        let old = match framing {
            Framing::Raw => inflate_ref(&stream, max_out),
            Framing::Gzip => gzip_ref(&stream, max_out).map(whole),
            Framing::Zlib => zlib_ref(&stream, max_out).map(whole),
        };
        match (&new, &old) {
            (Ok(n), Ok(o)) => {
                assert_eq!(n, o, "{what}: decoders disagree");
                assert!(n.0.len() <= max_out, "{what}: output over the bound");
                agreed_ok += 1;
            }
            (Err(_), Err(_)) => agreed_err += 1,
            _ => panic!("{what}: table decoder {new:?}, oracle {old:?}"),
        }
    }
    // The mutator must exercise both outcomes, not just break everything.
    assert!(
        agreed_ok > FUZZ_CASES / 50,
        "only {agreed_ok} cases survived"
    );
    assert!(
        agreed_err > FUZZ_CASES / 2,
        "only {agreed_err} cases failed"
    );
}

// ---------------------------------------------------------------------------
// (c) Hand-assembled blocks
// ---------------------------------------------------------------------------

fn assert_decodes_to(stream: &[u8], expected: &[u8], what: &str) {
    let (out, used) = both(stream, expected.len(), what).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(out, expected, "{what}");
    assert_eq!(used, stream.len(), "{what}");
}

#[test]
fn fifteen_bit_codes_and_a_one_code_distance_tree_decode() {
    let tokens = long_code_tokens();
    let mut w = BitWriter::default();
    // One distance code of length 1: incomplete, and legal (§3.2.7).
    put_dynamic_block(&mut w, &long_code_lit_lengths(), &[1], &tokens, true);
    let mut expected = Vec::new();
    expand(&tokens, &mut expected);
    assert_decodes_to(&w.finish(), &expected, "15-bit codes");

    // The tree's other distance bit is no code at all: literal `B` (00),
    // length symbol 257 (0), then a 1 where only 0 is a distance.
    let mut w = BitWriter::default();
    put_dynamic_header(&mut w, &long_code_lit_lengths(), &[1], true);
    w.put(0b1001, 4);
    w.put(0, 16);
    assert!(both(&w.finish(), 64, "unused distance code").is_err());
}

#[test]
fn overlapping_copies_repeat_their_period() {
    let mut tokens: Vec<Token> = b"abcdefghij".iter().map(|&b| Token::Lit(b)).collect();
    for dist in [1, 2, 3, 7, 8, 9] {
        for len in [3, 4, 20 + dist, 41, 258] {
            tokens.push(Token::Match { len, dist });
            tokens.push(Token::Lit(b'0' + dist as u8));
        }
    }
    let mut w = BitWriter::default();
    put_fixed_block(&mut w, &tokens, true);
    let mut expected = Vec::new();
    expand(&tokens, &mut expected);
    assert_decodes_to(&w.finish(), &expected, "overlapping copies");
}

#[test]
fn the_longest_match_reaches_the_far_edge_of_the_window() {
    let mut tokens: Vec<Token> = (0..32_768usize)
        .map(|i| Token::Lit((i * 31 % 251) as u8))
        .collect();
    tokens.push(Token::Match {
        len: 258,
        dist: 32_768,
    });
    tokens.push(Token::Match {
        len: 258,
        dist: 32_768,
    });
    let mut w = BitWriter::default();
    put_fixed_block(&mut w, &tokens, true);
    let mut expected = Vec::new();
    expand(&tokens, &mut expected);
    assert_decodes_to(&w.finish(), &expected, "len 258 at distance 32768");

    // One byte short of that distance is a reference before the start.
    let mut w = BitWriter::default();
    put_fixed_block(&mut w, &tokens[1..], true);
    assert!(both(&w.finish(), 1 << 16, "distance past the start").is_err());
}

#[test]
fn stored_dynamic_and_fixed_blocks_share_one_window() {
    let stored = b"a stored block, byte for byte. ";
    let dynamic = long_code_tokens();
    let mut expected = stored.to_vec();
    expand(&dynamic, &mut expected);
    // Reaches back through the dynamic block to the stored block's start.
    let fixed = [
        Token::Match {
            len: 14,
            dist: expected.len(),
        },
        Token::Lit(b'!'),
        Token::Match { len: 9, dist: 2 },
    ];
    expand(&fixed, &mut expected);
    let mut w = BitWriter::default();
    // An empty non-final fixed block first (end-of-block is 0000000), so
    // the stored block's header starts mid-byte and must align.
    w.put(0, 1);
    w.put(1, 2);
    w.put(0, 7);
    put_stored_block(&mut w, stored, false);
    put_dynamic_block(&mut w, &long_code_lit_lengths(), &[1], &dynamic, false);
    put_fixed_block(&mut w, &fixed, false);
    put_stored_block(&mut w, b"", true);
    assert_decodes_to(&w.finish(), &expected, "stored + dynamic + fixed");
}

#[test]
fn malformed_tables_are_rejected_by_both_decoders() {
    // Over-subscribed: three 1-bit codes.
    let mut lengths = long_code_lit_lengths();
    lengths[usize::from(b'A')] = 1;
    lengths[usize::from(b'Z')] = 1;
    let mut w = BitWriter::default();
    put_dynamic_block(&mut w, &lengths, &[1], &[], true);
    assert!(both(&w.finish(), 64, "over-subscribed").is_err());

    // Literal/length symbols 286 and 287 and distance symbols 30 and 31
    // may carry codes but must not be used.
    let lit = fixed_lit_lengths();
    let lit_codes = canonical_codes(&lit);
    for forbidden in [286usize, 287] {
        let mut w = BitWriter::default();
        w.put(1, 1);
        w.put(1, 2);
        w.put_code(lit_codes[forbidden], u32::from(lit[forbidden]));
        assert!(both(&w.finish(), 64, "forbidden length symbol").is_err());
    }
    for forbidden in [30u32, 31] {
        let mut w = BitWriter::default();
        w.put(1, 1);
        w.put(1, 2);
        w.put_code(lit_codes[usize::from(b'x')], 8);
        w.put_code(lit_codes[257], 7);
        w.put_code(forbidden, 5);
        w.put(0, 16);
        assert!(both(&w.finish(), 64, "forbidden distance symbol").is_err());
    }

    // Reserved block type, LEN/NLEN mismatch, and the empty stream.
    assert!(both(&[0b111], 64, "block type 3").is_err());
    assert!(both(&[0b001, 4, 0, 0, 0, 1, 2, 3, 4], 64, "LEN/NLEN").is_err());
    assert!(both(&[], 64, "empty").is_err());
}

// ---------------------------------------------------------------------------
// (d) Streams produced by a real zlib
// ---------------------------------------------------------------------------

// Generated once with python3's zlib 1.2.13 from the text `zlib_rows`
// reproduces:
//   rows = lambda a, n: b"".join(b"row %d: status=%d latency=%d\n"
//                                % (i, 200 + i*7 % 5, i*i % 1000) for i in range(a, a + n))
//   ZLIB_L9    = zlib.compress(rows(0, 60), 9)                      # one dynamic block
//   RAW_MULTI  = c.compress(rows(0, 25)) + c.flush(Z_FULL_FLUSH)    # c = compressobj(9, DEFLATED, -15)
//              + c.compress(lcg(200, 5)) + c.flush(Z_FULL_FLUSH)    # lcg = lcg_bytes(.., 256): stored
//              + c.compress(rows(100, 25)) + c.flush()
//   GZIP_FNAME = GzipFile(filename="col.bin", mtime=0, compresslevel=9).write(rows(7, 40))

const ZLIB_L9: &[&str] = &[
    "78da7dd54d4ec4300c05e03da79823c47f6983348719217608a49922c4ed19d5afa58be7ae9f523b5f9cf4fef57369af",
    "97c7725bbe1f576dedf2715bde3fdf7eafede5fecce490e99ec99ae921f33df335b343267b36d6cc0f99fd7fb3af61d0",
    "6634d6b0d36e2c574ebc9dac39d37e7a363b684373ee52388f340015428ad51c493c2b0b77929e5d4b413572c7526041",
    "4b3897065673309d519b9399a2738e661db3c1d51c6acad5dcb1ba18ad396b2b570bcdce95abc594fb56aed6a1a65cad",
    "6fabb9dab4d5e66ad3d679316ad8b771b50135e36a03e6c6d57060c6d170da564c1a66c5ce27cd8a49c39c1a37334cb9",
    "7133c71d316e16b861cecd3acc9c9b75dc6ee766135e062fd0f0aa38571b7891fcf431738e267808bdb89e0da58bebd9",
    "d03847f396db0e8e16408b026d5b5da0a1761468e83c0ab4ed07708a16051ac4a340c379458186d38e02ed392b7f952d",
    "3c6c",
];

const RAW_MULTI: &[&str] = &[
    "7492410a03210c45f7730a8f606274b43087194a77a585194be9ed5b4cb02ebeeb47ccf391e3f976fee2cebad7d7b9b1",
    "f7eebed7dbe3fad9fc72fc180d8c3ba3c67860d299341606469d95c66460e1ff666a3042198e0d2668137472c53aba33",
    "439fa4b2050a65fd25e13ce42dd0a410db348e44a29b0977a2a4d6344955f4c7348965b508e7e268d3381867db8d9305",
    "36731c2d24bb0d5c4dac1ae36a22363d39adacbb19578bace68cabc5352d5f000000ffff00c80037ff309dbaad0f5323",
    "b54a38ab7254abd1c55c57ba7c5ef01842fd86f1c6492b7a19234943d5a9b58cf9fe06ee540c4ce66c9c12308c87a846",
    "eac75149f42df5c6b45fe6744adbcfa778d49133b47c65c6d04683d3a167a57fde3281b01e3e49504f695e729f39ef4d",
    "5687e7fe36735ee917d483a361754f676217f274c5c328c16f789d882af83c8bb7401b785b753feae9d3bdf27a56c05f",
    "47f1e6fc9e11a0bfb3d84b16a9ab8a58f59d26fd4f0fa4e7c58bac8785d2d5886123249a9b24f79373d617f96c6da2d9",
    "5c000000ffff7590410ac3300c04ef79459e20c9b26c17f298107a2b2d2429a5bf6f2992f1617b1e168d667fbc6626ba",
    "ccc7b99ecf6311a2f9b69ed7fbf65e68da7f94072a9d0ab17319b876aea4ced3c0b973a3e65c079e3aaf6cce33b493ec",
    "d8b05e8a79c17a1ae72bd6b3d06f58affafb8ce37da33ac7f992c41ee7cbeaf719e72be6fe8cf3b5e6fff39f7cd18f71",
    "3fcdb1c7fdacc67ddcaf49f8e37e6cfebfe07e1afd04f7338d3dee57abdf17dc8fc5fd05f74bc5a60f",
];

const GZIP_FNAME: &[&str] = &[
    "1f8b08080000000002ff636f6c2e62696e007dd44b6e02311004d03da79823b83f6e8f91380c42ec229060a228b70fa2",
    "6b865994b32e592e3fb7fdb8ff4ced383d97f3f2fd3c69f1e9ebbc5c6f97df93f7c3e315cebb50b630fc1df65d685b38",
    "cb3b94b24bcb964a2919cb2ed64fac58adb49578ee2c467b49646b71da4c7a645c6935d59a71d06a5ab19a83e98cbd39",
    "99299a73348b3cb77235879a723577ace66a3ee7decad5aa6673e56ab5e5b995ab05d494abc5ba9aabb5756faed6d6e6",
    "8351c3b98dab75a81957eb3037ae860b338e86dbb6c1a46156ecff49b3c1a4614e8d9b19a6dcb899e38d1837ab7861ce",
    "cd0266cecd02afdbb959c3cfe00334fc2aced5bae5b97da09668ced144e2f0072524fc02cf040000",
];

fn zlib_rows(from: usize, n: usize) -> Vec<u8> {
    (from..from + n)
        .flat_map(|i| {
            format!(
                "row {i}: status={} latency={}\n",
                200 + i * 7 % 5,
                i * i % 1000
            )
            .into_bytes()
        })
        .collect()
}

fn raw_multi_plain() -> Vec<u8> {
    [zlib_rows(0, 25), lcg_bytes(200, 5, 256), zlib_rows(100, 25)].concat()
}

#[test]
fn streams_from_a_real_zlib_decode() {
    let plain = zlib_rows(0, 60);
    let stream = unhex(ZLIB_L9);
    assert_eq!(stream[2] >> 1 & 3, 2, "level 9 chose a dynamic block");
    assert_eq!(zlib_decompress(&stream, plain.len()), Ok(plain.clone()));
    assert_eq!(zlib_ref(&stream, plain.len()), Ok(plain));

    // Dynamic, empty stored (the flush marker), stored, dynamic blocks.
    assert_decodes_to(&unhex(RAW_MULTI), &raw_multi_plain(), "multi-block");

    let plain = zlib_rows(7, 40);
    let stream = unhex(GZIP_FNAME);
    assert_eq!(stream[3], 0x08, "FNAME set");
    assert_eq!(gzip_decompress(&stream, plain.len()), Ok(plain.clone()));
    assert_eq!(gzip_ref(&stream, plain.len()), Ok(plain));
}

// ---------------------------------------------------------------------------
// (e) Checksums and the fused gather against their slow twins
// ---------------------------------------------------------------------------

#[test]
fn crc32_matches_the_bitwise_loop_at_every_length_and_offset() {
    let bytes = input(Kind::Incompressible, 2 * CRC_STREAMS_MIN, 0xC4C);
    // Short inputs, then the four-stream threshold.
    let near = |at: usize| at - 16..=at + 16;
    for (offsets, lens) in [(0..8, 0..=64), (0..9, near(CRC_STREAMS_MIN))] {
        for offset in offsets {
            for len in lens.clone() {
                let slice = &bytes[offset..offset + len];
                assert_eq!(crc32(slice), crc32_ref(slice), "offset {offset} len {len}");
            }
        }
    }
    // Each multiple of 32 moves the 8-byte-aligned quarter up a word and
    // drops the tail from 31 bytes to none.
    let mut lens: Vec<usize> = [1088, 4096, 70_016]
        .iter()
        .flat_map(|&n| n - 1..=n + 1)
        .collect();
    lens.extend([70_001, 32 << 10, 2 << 20]);
    let long = input(Kind::Incompressible, 2 << 20, 0xC4D);
    for len in lens {
        assert_eq!(crc32(&long[..len]), crc32_ref(&long[..len]), "len {len}");
    }
}

#[test]
fn crc32_combine_joins_the_crcs_of_two_halves() {
    let mut rng = Rng(0xC0B19E);
    let bytes = input(Kind::Incompressible, 5000, 0xC4E);
    for case in 0..64 {
        let n = if case == 0 { 0 } else { rng.below(5001) };
        // A quarter of the splits leave `a` empty, a quarter `b`.
        let split = match case % 4 {
            0 => 0,
            1 => n,
            _ => rng.below(n + 1),
        };
        let (a, b) = bytes[..n].split_at(split);
        assert_eq!(
            crc32_combine(crc32_ref(a), crc32_ref(b), b.len()),
            crc32_ref(&bytes[..n]),
            "case {case}: {} + {} bytes",
            a.len(),
            b.len()
        );
    }
}

#[test]
fn fused_decode_matches_the_three_pass_pipeline() {
    let mut rng = Rng(0xDEC0DE);
    for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000, 4095, 4096] {
        // Low-cardinality values, so fills occur and planes compress.
        let fill = -9999.0f64;
        let data: Vec<f64> = (0..n)
            .map(|_| match rng.below(5) {
                0 => fill,
                1 => f64::NAN,
                k => k as f64 * 0.37 - 1e9 * rng.below(3) as f64,
            })
            .collect();
        for codec in [Codec::Gzip, Codec::Zlib, Codec::None] {
            for shuffle in [false, true] {
                for byte_order in [ByteOrder::Little, ByteOrder::Big] {
                    for fill_value in [None, Some(fill), Some(f64::NAN)] {
                        let enc = Encoding {
                            codec,
                            shuffle,
                            byte_order,
                            fill_value,
                        };
                        let stream = enc.encode(&data);
                        let want = decode_ref(&enc, &stream, n * 8).expect("reference decodes");
                        let mut got = vec![1.5f64];
                        assert_eq!(enc.decode_into(&stream, n, &mut got), Ok(n), "{enc:?}");
                        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&got[1..]), bits(&want), "{enc:?} n={n}");
                        assert_eq!(got[0], 1.5, "decode_into appends");
                        if n > 0 {
                            let mut untouched = vec![2.5f64];
                            assert!(enc.decode_into(&stream, n - 1, &mut untouched).is_err());
                            assert_eq!(untouched, [2.5], "out untouched on error");
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Bounds: decompression bombs and unchecked bytes
// ---------------------------------------------------------------------------

/// A literal and `matches` copies of `len 258, dist 1`: 13 bits a match.
fn bomb(matches: usize) -> Vec<u8> {
    let mut tokens = vec![Token::Lit(0)];
    tokens.resize(matches + 1, Token::Match { len: 258, dist: 1 });
    let mut w = BitWriter::default();
    put_fixed_block(&mut w, &tokens, true);
    w.finish()
}

#[test]
fn a_stream_that_outgrows_its_declared_size_is_refused() {
    let matches = 1260;
    let stream = bomb(matches);
    let full = 1 + 258 * matches;
    assert!(stream.len() < 2100 && full > 150 * stream.len());
    // Honest bound: decodes, in an allocation no larger than the bound.
    let (out, _) = both(&stream, full, "bomb, honest bound").expect("decodes");
    assert_eq!(out.len(), full);
    // Any tighter bound: refused by both.
    for max_out in [0, 1, 258, 259, 4096, full - 1] {
        let err = both(&stream, max_out, "bomb").expect_err("over the bound");
        assert_eq!(err, "deflate output exceeds declared size");
    }
    // A gzip member whose ISIZE understates the body fails at ISIZE
    // bytes; one whose ISIZE overstates the caller's bound never starts.
    let mut member = vec![0x1F, 0x8B, 8, 0, 0, 0, 0, 0, 0, 0xFF];
    member.extend_from_slice(&stream);
    member.extend_from_slice(&crc32(&out).to_le_bytes());
    let trailer = member.len();
    member.extend_from_slice(&4096u32.to_le_bytes());
    assert_eq!(
        gzip_decompress(&member, full).expect_err("understated ISIZE"),
        "deflate output exceeds declared size"
    );
    member[trailer..].copy_from_slice(&(full as u32).to_le_bytes());
    assert_eq!(gzip_decompress(&member, full).as_ref(), Ok(&out));
    assert!(gzip_decompress(&member, full - 1)
        .expect_err("ISIZE over the bound")
        .contains("exceeds"));
    // An encoded chunk is bounded by its element count, whatever it says.
    let chunk = Encoding {
        shuffle: false,
        ..Encoding::gzip_shuffled()
    };
    assert!(chunk.decode_into(&member, 4096, &mut Vec::new()).is_err());
}

#[test]
fn a_body_must_end_exactly_at_its_trailer() {
    let data = input(Kind::LowCardinality, 500, 7);
    let raw = deflate(&data);
    let mut late = raw.clone();
    late.push(0);
    assert!(inflate(&late).is_err(), "stray byte after the final block");
    assert_eq!(inflate_bounded(&late, 500), Ok((data.clone(), raw.len())));

    let gz = gzip_compress(&data);
    let mut late = gz.clone();
    late.insert(gz.len() - 8, 0);
    assert!(gzip_decompress(&late, 500).is_err(), "gzip body ends late");
    assert!(gzip_ref(&late, 500).is_err());
    let mut early = gz.clone();
    early.remove(gz.len() - 9);
    assert!(
        gzip_decompress(&early, 500).is_err(),
        "gzip body ends early"
    );

    let z = zlib_compress(&data);
    let mut late = z.clone();
    late.insert(z.len() - 4, 0);
    assert!(zlib_decompress(&late, 500).is_err(), "zlib body ends late");
    assert!(zlib_ref(&late, 500).is_err());
}

#[test]
fn gzip_reserved_flag_bits_are_refused() {
    let data = input(Kind::LowCardinality, 25, 8);
    let member = gzip_compress(&data);
    for flags in [0x20u8, 0x40, 0x80, 0xE0] {
        let mut bad = member.clone();
        bad[3] = flags;
        let err = gzip_decompress(&bad, 25).expect_err("reserved FLG bit");
        assert!(err.contains("reserved flag bits"), "{flags:#x}: {err}");
        assert!(gzip_ref(&bad, 25).is_err());
    }
    assert_eq!(gzip_decompress(&member, 25), Ok(data));
}

#[test]
fn zlib_windows_past_32_kib_are_refused() {
    let data = input(Kind::LowCardinality, 25, 9);
    let stream = zlib_compress(&data);
    for cinfo in 0..16u8 {
        // CMF with this window size, FLG's check bits fixed up to match.
        let cmf = cinfo << 4 | 8;
        let flg = (0..0x20u8)
            .find(|f| (u16::from(cmf) * 256 + u16::from(f | 0x80)) % 31 == 0)
            .expect("some FCHECK works")
            | 0x80;
        let mut s = stream.clone();
        s[..2].copy_from_slice(&[cmf, flg]);
        let got = zlib_decompress(&s, 25);
        assert_eq!(got.is_ok(), cinfo <= 7, "CMF {cmf:#x}: {got:?}");
        assert_eq!(zlib_ref(&s, 25).is_ok(), cinfo <= 7);
        if cinfo > 7 {
            assert!(got.expect_err("checked").contains("CINFO"));
        }
    }
}

// ---------------------------------------------------------------------------
// Encoder: the bytes are pinned, the tables are checked against a scan
// ---------------------------------------------------------------------------

#[test]
fn deflate_output_is_pinned_to_the_bytes_before_the_encoder_trim() {
    // (length, FNV-1a 64) of `deflate` output, recorded at the commit
    // before the encoder's tables and word-wise match extension landed.
    let patterned: Vec<u8> = (0..70_000usize).map(|i| ((i / 7) % 251) as u8).collect();
    let planes: Vec<u8> = (0..4096usize)
        .map(|i| ((i % 97) as f64).mul_add(0.25, -11.0))
        .flat_map(f64::to_le_bytes)
        .collect();
    let shuffled = shuffle(&planes, 8);
    assert_eq!(
        fnv1a(&shuffled),
        0x9795_b6c2_3c5c_3d04,
        "shuffle moved a byte"
    );
    for (name, data, len, digest) in [
        ("patterned", &patterned, 1372, 0x31d1_9487_d49d_c064u64),
        ("shuffled f64 planes", &shuffled, 380, 0x9a3d_b639_fd4a_099d),
        (
            "six-symbol text",
            &lcg_bytes(50_000, 7, 6),
            27_443,
            0x0369_05e2_7d88_f280,
        ),
        (
            "incompressible",
            &lcg_bytes(40_000, 9, 256),
            42_175,
            0x4a3b_8b55_715f_b057,
        ),
    ] {
        let packed = deflate(data);
        assert_eq!((packed.len(), fnv1a(&packed)), (len, digest), "{name}");
    }
}

#[test]
fn the_two_pass_encoder_writes_the_single_pass_encoders_bytes() {
    let mut lengths: Vec<usize> = (0..=8).collect();
    lengths.extend([257, 258, 259, 32_767, 32_768, 32_769, 70_001]);
    for (case, &n) in lengths.iter().enumerate() {
        for kind in KINDS {
            let seed = 0xE000 + case as u64;
            let data = input(kind, n, seed);
            assert!(
                deflate(&data) == deflate_ref(&data),
                "{kind:?} n={n} seed={seed:#x}"
            );
        }
    }
    // Shuffled f64 columns with the cardinalities of the benchmark's
    // TPC-H-6 columns: stored as 4 096-element chunks, and one whole
    // 2 MiB column as the write side encodes it.
    let mut rng = Rng(0xE0C01);
    // (name, base, cardinality, divisor): `base + below(card) / divisor`.
    let shapes = [
        ("shipdate", 8400.0, 1200, 1.0),
        ("quantity", 1.0, 50, 1.0),
        ("discount", 0.0, 11, 100.0),
        ("price", 900.0, 100_000, 100.0),
    ];
    let mut column = |n: usize, (_, base, card, div): (&str, f64, usize, f64)| {
        let bytes: Vec<u8> = (0..n)
            .flat_map(|_| (base + rng.below(card) as f64 / div).to_le_bytes())
            .collect();
        shuffle(&bytes, 8)
    };
    for shape in shapes {
        for chunk in 0..4 {
            let bytes = column(4096, shape);
            assert!(
                deflate(&bytes) == deflate_ref(&bytes),
                "{} chunk {chunk}",
                shape.0
            );
        }
    }
    let whole = column(1 << 18, shapes[3]);
    assert!(deflate(&whole) == deflate_ref(&whole), "whole price column");
}

#[test]
fn encoder_tables_match_a_scan_of_the_base_tables() {
    let codes = canonical_codes(&fixed_lit_lengths());
    for (sym, &(code, len)) in FIXED_LIT.iter().enumerate() {
        assert_eq!(len, fixed_lit_lengths()[sym], "symbol {sym}");
        let canonical = codes[sym].reverse_bits() >> (32 - u32::from(len));
        assert_eq!(u32::from(code), canonical, "symbol {sym}");
    }
    for (len, &sym) in LEN_SYM.iter().enumerate().skip(MIN_MATCH) {
        let scan = LEN_BASE.iter().rposition(|&b| usize::from(b) <= len);
        assert_eq!(Some(usize::from(sym)), scan, "length {len}");
    }
    for dist in 1..=WINDOW {
        let scan = DIST_BASE.iter().rposition(|&b| usize::from(b) <= dist);
        assert_eq!(Some(dist_symbol(dist)), scan, "distance {dist}");
    }
}

#[test]
fn transpose_and_shuffle_match_their_definitions() {
    let rows: [u64; 8] =
        std::array::from_fn(|r| u64::from_le_bytes(std::array::from_fn(|c| (r * 8 + c) as u8)));
    for (c, word) in transpose8x8(rows).iter().enumerate() {
        let want: [u8; 8] = std::array::from_fn(|r| (r * 8 + c) as u8);
        assert_eq!(word.to_le_bytes(), want, "column {c}");
    }
    let bytes = input(Kind::Incompressible, 8 * 37 + 5, 0x5F);
    let n = bytes.len() / 8;
    let shuffled = shuffle(&bytes, 8);
    for pos in 0..8 {
        for elem in 0..n {
            assert_eq!(shuffled[pos * n + elem], bytes[elem * 8 + pos]);
        }
    }
    assert_eq!(shuffled[8 * n..], bytes[8 * n..]);
    assert_eq!(unshuffle(&shuffled, 8), bytes);
}
