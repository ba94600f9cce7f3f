//! Cross-transport determinism of MPC rounds: a scripted multi-round
//! conversation — any machine to any machine, repeated `(src, dst)` pairs
//! and self-addressed messages included, as the Section 5 tools send them —
//! produces bit-identical inboxes and metrics whether the messages travel
//! through the in-memory reference or real localhost sockets.

use dcl_mpc::machine::Mpc;
use dcl_sim::{ExecConfig, TransportSpec};
use proptest::prelude::*;

/// Machine `i`'s messages in round `r`: a `salt`-dependent handful of
/// two-word records whose recipients repeat and may be `i` itself.
fn script(machines: usize, salt: u64, r: usize, i: usize) -> Vec<(usize, (u64, u64))> {
    (0..(salt as usize + i + r) % 6)
        .map(|k| {
            let h = ((i * 131 + k * 7 + r) as u64)
                .wrapping_add(salt)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((i + k * k + r) % machines, (h, k as u64))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Two rounds on each tier: inboxes and metrics equal the in-memory
    /// reference, each inbox is the machine-order merge of the scripted
    /// sends, and the socket tier ships one frame per message.
    #[test]
    fn machine_rounds_are_transport_identical(
        machines in 2usize..12,
        salt in any::<u64>(),
    ) {
        let mut reference = Mpc::new(machines, 64);
        let expected: Vec<_> = (0..2)
            .map(|r| reference.round(|i| script(machines, salt, r, i)))
            .collect();
        for (r, inboxes) in expected.iter().enumerate() {
            let mut merged = vec![Vec::new(); machines];
            for i in 0..machines {
                for (dst, msg) in script(machines, salt, r, i) {
                    merged[dst].push((i, msg));
                }
            }
            prop_assert_eq!(inboxes, &merged, "round {} is not the machine-order merge", r);
        }
        let tcp = ExecConfig::default().with_transport(TransportSpec::Tcp);
        let mut mpc = Mpc::from_exec(machines, 64, &tcp);
        for (r, inboxes) in expected.iter().enumerate() {
            let shipped = mpc.round(|i| script(machines, salt, r, i));
            prop_assert_eq!(&shipped, inboxes, "round {} diverged on sockets", r);
        }
        prop_assert_eq!(mpc.metrics(), reference.metrics());
        let stats = mpc.transport_stats().expect("the socket tier meters traffic");
        prop_assert_eq!(stats.frames, reference.metrics().messages);
    }
}
