//! Property-based tests for the simulated cluster's collectives.

use kimbap_comm::wire::{decode_slice, encode_slice, frame_payload, parse_frame};
use kimbap_comm::{Cluster, FaultPlan, CHUNK_PAYLOAD};
use proptest::prelude::*;

/// Deterministic per-link payload: a function of (from, to, len, fill) so
/// every backend and both collective flavours can be checked against the
/// same expected bytes without sharing state.
fn link_payload(from: usize, to: usize, len: usize, fill: u8) -> Vec<u8> {
    (0..len)
        .map(|i| fill.wrapping_add((from * 31 + to * 7 + i) as u8))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every payload arrives exactly once, at the right host, from the
    /// right source, across multiple rounds.
    #[test]
    fn exchange_is_a_permutation(
        hosts in 1usize..5,
        rounds in 1usize..4,
        payload in prop::collection::vec(0u64..1000, 0..20),
    ) {
        let ok = Cluster::new(hosts).run(|ctx| {
            for round in 0..rounds as u64 {
                // Host h sends [h, to, round, payload...] to each host.
                let outgoing = (0..hosts)
                    .map(|to| {
                        let mut msg = vec![ctx.host() as u64, to as u64, round];
                        msg.extend_from_slice(&payload);
                        encode_slice(&msg)
                    })
                    .collect();
                let received = ctx.exchange(outgoing);
                for (from, buf) in received.iter().enumerate() {
                    let msg = decode_slice::<u64>(buf);
                    if msg[0] != from as u64
                        || msg[1] != ctx.host() as u64
                        || msg[2] != round
                        || msg[3..] != payload[..]
                    {
                        return false;
                    }
                }
            }
            true
        });
        prop_assert!(ok.iter().all(|&b| b));
    }

    /// All-reduce is position-independent for commutative+associative ops
    /// and every host sees the same result.
    #[test]
    fn all_reduce_consistent(
        values in prop::collection::vec(0u64..10_000, 1..5),
    ) {
        let hosts = values.len();
        let vals = &values;
        let sums = Cluster::new(hosts).run(|ctx| {
            ctx.all_reduce_u64(vals[ctx.host()], |a, b| a.wrapping_add(b))
        });
        let expected: u64 = values.iter().sum();
        prop_assert!(sums.iter().all(|&s| s == expected));

        let mins = Cluster::new(hosts).run(|ctx| {
            ctx.all_reduce_u64(vals[ctx.host()], |a, b| a.min(b))
        });
        let expected_min = *values.iter().min().unwrap();
        prop_assert!(mins.iter().all(|&m| m == expected_min));
    }

    /// All-gather returns host-ordered values everywhere.
    #[test]
    fn all_gather_ordered(values in prop::collection::vec(0u64..1000, 1..5)) {
        let hosts = values.len();
        let vals = &values;
        let gathered = Cluster::new(hosts).run(|ctx| ctx.all_gather(vals[ctx.host()]));
        for g in gathered {
            prop_assert_eq!(&g, vals);
        }
    }

    /// Byte accounting: bytes equals the sum of non-empty remote payload
    /// lengths.
    #[test]
    fn traffic_accounting_exact(
        hosts in 2usize..5,
        sizes in prop::collection::vec(0usize..64, 2..5),
    ) {
        let sizes = &sizes;
        let stats = Cluster::new(hosts).run(|ctx| {
            let outgoing: Vec<Vec<u8>> = (0..hosts)
                .map(|to| vec![0u8; sizes[to % sizes.len()]])
                .collect();
            let expected_bytes: u64 = (0..hosts)
                .filter(|&to| to != ctx.host())
                .map(|to| sizes[to % sizes.len()] as u64)
                .sum();
            let expected_msgs = (0..hosts)
                .filter(|&to| to != ctx.host() && sizes[to % sizes.len()] > 0)
                .count() as u64;
            ctx.exchange(outgoing);
            let s = ctx.stats();
            s.bytes == expected_bytes && s.messages == expected_msgs
        });
        prop_assert!(stats.iter().all(|&b| b));
    }

    /// Frame integrity: any single flipped bit anywhere in a framed
    /// message — header or payload — is detected by `parse_frame`
    /// (CRC32 detects every single-bit error; length/magic checks catch
    /// the rest), and an unflipped frame round-trips exactly.
    #[test]
    fn single_bit_corruption_always_detected(
        seq in 0u64..u64::MAX,
        payload in prop::collection::vec(0u8..255, 0..64),
        bit_seed in 0u64..1_000_000,
    ) {
        let frame = frame_payload(seq, &payload);
        let (got_seq, got_payload) = parse_frame(&frame).expect("clean frame parses");
        prop_assert_eq!(got_seq, seq);
        prop_assert_eq!(got_payload, &payload[..]);

        let bit = (bit_seed % (frame.len() as u64 * 8)) as usize;
        let mut corrupted = frame.clone();
        corrupted[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            parse_frame(&corrupted).is_err(),
            "flip of bit {} went undetected", bit
        );
    }

    /// Hostile input never panics the frame parser: truncating a valid
    /// frame at any point, xor-ing arbitrary bit-flip masks over it, or
    /// feeding pure garbage bytes all yield a clean `Err`, while the
    /// untouched frame still round-trips. This is the safety contract the
    /// TCP backend relies on when a connection delivers torn or mangled
    /// bytes.
    #[test]
    fn parser_survives_truncation_and_garbage(
        seq in 0u64..u64::MAX,
        payload in prop::collection::vec(0u8..=255, 0..64),
        cut in 0usize..1000,
        flips in prop::collection::vec((0usize..1000, 0u8..=255), 0..8),
        garbage in prop::collection::vec(0u8..=255, 0..96),
    ) {
        let frame = frame_payload(seq, &payload);
        prop_assert!(parse_frame(&frame).is_ok());

        // Truncation at every possible boundary is a parse error, never a
        // panic (the full-length case parses and is checked above).
        let cut = cut % frame.len();
        prop_assert!(parse_frame(&frame[..cut]).is_err());

        // Arbitrary multi-byte mangling either leaves the frame intact
        // (all masks were zero) or is rejected; parse_frame must not
        // panic or mis-accept different bytes.
        let mut mangled = frame.clone();
        for &(pos, mask) in &flips {
            mangled[pos % frame.len()] ^= mask;
        }
        if let Ok((s, p)) = parse_frame(&mangled) {
            prop_assert_eq!(s, seq);
            prop_assert_eq!(p, &payload[..]);
        }

        // Pure garbage (no magic, random lengths) never panics.
        prop_assert!(parse_frame(&garbage).is_err() || garbage == frame);
    }

    /// Differential check for the chunked collective: on every backend
    /// (in-proc, TCP loopback, deterministic sim), `exchange` returns
    /// byte-for-byte the independently computed expectation. Payload sizes
    /// are drawn from the chunk-boundary set {0, 1, C−1, C, C+1}
    /// (C = [`CHUNK_PAYLOAD`]) so single-chunk, exact-fit, and straddling
    /// streams are all exercised.
    #[test]
    fn exchange_reassembles_chunk_boundary_payloads_on_all_backends(
        hosts in 2usize..4,
        pick in prop::collection::vec(0usize..5, 2..4),
        fill in 0u8..=255,
    ) {
        let boundary = [0, 1, CHUNK_PAYLOAD - 1, CHUNK_PAYLOAD, CHUNK_PAYLOAD + 1];
        let sizes: Vec<usize> = pick.iter().map(|&i| boundary[i]).collect();
        let len_for = |from: usize, to: usize| sizes[(from + to) % sizes.len()];
        let expected: Vec<Vec<Vec<u8>>> = (0..hosts)
            .map(|me| {
                (0..hosts)
                    .map(|from| link_payload(from, me, len_for(from, me), fill))
                    .collect()
            })
            .collect();
        for c in [
            Cluster::new(hosts),
            Cluster::new(hosts).tcp(),
            Cluster::new(hosts).sim(fill as u64 + 1),
        ] {
            let received = c.run(|ctx| {
                let me = ctx.host();
                let outgoing = (0..hosts)
                    .map(|to| link_payload(me, to, len_for(me, to), fill))
                    .collect();
                ctx.exchange(outgoing)
            });
            prop_assert_eq!(&received, &expected);
        }
    }

    /// Exchanges complete with correct contents under seeded random frame
    /// faults, for any seed.
    #[test]
    fn exchange_survives_random_faults(
        seed in 0u64..u64::MAX,
        hosts in 2usize..5,
    ) {
        let plan = FaultPlan::new()
            .with_seed(seed)
            .drop_rate(0.08)
            .duplicate_rate(0.05)
            .corrupt_rate(0.05);
        let ok = Cluster::new(hosts).run_with_faults(plan, |ctx| {
            for round in 0..6u64 {
                let outgoing = (0..hosts)
                    .map(|to| encode_slice(&[ctx.host() as u64, to as u64, round]))
                    .collect();
                let received = ctx.exchange(outgoing);
                for (from, buf) in received.iter().enumerate() {
                    if decode_slice::<u64>(buf)
                        != vec![from as u64, ctx.host() as u64, round]
                    {
                        return false;
                    }
                }
            }
            true
        });
        prop_assert!(ok.iter().all(|&b| b));
    }
}
