//! Section 5: basic MPC tools, executed as real message-passing rounds on
//! the simulator.
//!
//! - [`sort`] — constant-round deterministic sorting by regular sampling
//!   (the role played by \[GSZ11\] in the paper; see `DESIGN.md` §2 for the
//!   sampling-fan-in caveat);
//! - [`prefix_sums`] — Definition 5.2 for any associative operator;
//! - [`segmented_scan`] — the keyed variant used to aggregate per-set values
//!   (the workhorse behind the aggregation-tree structure of
//!   Definition 5.4);
//! - [`set_difference`] — Definition 5.3;
//! - [`ranks`] — Corollary 5.2 (rank of each element within its set).

use crate::machine::{Mpc, WordSized};
use dcl_sim::{bit_len, Wire};

/// Data distributed across machines: `blocks[i]` lives on machine `i`.
pub type Dist<T> = Vec<Vec<T>>;

/// Distributes `items` round-robin over the cluster's machines (an
/// "adversarial" but balanced initial placement for tests and drivers).
pub fn scatter<T: Clone>(machines: usize, items: &[T]) -> Dist<T> {
    let mut dist: Dist<T> = vec![Vec::new(); machines];
    for (i, item) in items.iter().enumerate() {
        dist[i % machines].push(item.clone());
    }
    dist
}

/// Flattens distributed data in machine order.
pub fn gather<T: Clone>(dist: &Dist<T>) -> Vec<T> {
    dist.iter().flatten().cloned().collect()
}

/// Internal sort key: the item plus a unique tiebreak, so that regular
/// sampling sees distinct keys (duplicate-heavy inputs otherwise overload
/// one bucket) and padding sorts last in the bitonic fallback.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Keyed<T> {
    /// A real item with its unique tiebreak `(machine, index)`.
    Item(T, u32, u32),
    /// Padding (sorts after every item).
    Pad,
}

impl<T: WordSized> WordSized for Keyed<T> {
    fn words(&self) -> usize {
        match self {
            Keyed::Item(t, _, _) => t.words() + 1,
            Keyed::Pad => 1,
        }
    }
}

/// Byte codec for the transport tier: a tag byte, then (for items) the
/// payload and its tiebreak pair. The declared bit-width mirrors the
/// structure; MPC's cost accounting stays word-based regardless.
impl<T: Wire> Wire for Keyed<T> {
    fn wire_bits(&self) -> u32 {
        match self {
            Keyed::Item(t, machine, index) => {
                1 + t.wire_bits() + bit_len(u64::from(*machine)) + bit_len(u64::from(*index))
            }
            Keyed::Pad => 1,
        }
    }
    fn wire_encode(&self, out: &mut Vec<u8>) {
        match self {
            Keyed::Item(t, machine, index) => {
                out.push(0);
                t.wire_encode(out);
                machine.wire_encode(out);
                index.wire_encode(out);
            }
            Keyed::Pad => out.push(1),
        }
    }
    fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::wire_decode(buf)? {
            0 => Some(Keyed::Item(
                T::wire_decode(buf)?,
                u32::wire_decode(buf)?,
                u32::wire_decode(buf)?,
            )),
            1 => Some(Keyed::Pad),
            _ => None,
        }
    }
}

/// Sorts `data` across the cluster (Definition 5.1): afterwards machine `i`
/// holds the ranks `[i·B, (i+1)·B)` of the sorted order, for block size
/// `B = ⌈N/M⌉`.
///
/// Implementation: rebalance to equal blocks, then deterministic regular
/// sampling (local sort, per-machine samples to machine 0, global splitters,
/// bucket exchange, exact re-blocking) — `O(1)` rounds, the role \[GSZ11\]
/// plays in the paper. When the `M²` sample fan-in would exceed machine 0's
/// `O(S)` receive budget (tiny memories relative to the machine count —
/// where the paper would recurse), the routine falls back to a block-bitonic
/// merge-split network with `O(log² M)` rounds; see `DESIGN.md` §2.
pub fn sort<T>(mpc: &mut Mpc, data: Dist<T>) -> Dist<T>
where
    T: Ord + Clone + WordSized + Wire,
{
    let p = mpc.machines();
    assert_eq!(data.len(), p, "one block per machine required");
    let total: usize = data.iter().map(Vec::len).sum();
    if total == 0 {
        return vec![Vec::new(); p];
    }
    // Attach unique tiebreaks.
    let keyed: Dist<Keyed<T>> = data
        .iter()
        .enumerate()
        .map(|(i, block)| {
            block
                .iter()
                .enumerate()
                .map(|(k, item)| Keyed::Item(item.clone(), i as u32, k as u32))
                .collect()
        })
        .collect();
    // Rebalance to equal-size blocks (3 rounds: counts, offsets, route).
    let block_size = total.div_ceil(p);
    let balanced = rebalance(mpc, keyed, block_size);

    // Choose the strategy by machine-0 fan-in, using the exact item width.
    let item_words = balanced
        .iter()
        .flatten()
        .map(WordSized::words)
        .max()
        .unwrap_or(1);
    let sample_words = p * ((p - 1) * item_words + 1); // p-1 samples per machine + vec header
    let budget = 4 * mpc.memory_words();
    let sorted = if sample_words <= budget {
        sample_sort(mpc, balanced, block_size)
    } else {
        bitonic_sort(mpc, balanced, block_size)
    };
    // Strip tiebreaks and padding.
    let out: Dist<T> = sorted
        .into_iter()
        .map(|block| {
            block
                .into_iter()
                .filter_map(|k| match k {
                    Keyed::Item(t, _, _) => Some(t),
                    Keyed::Pad => None,
                })
                .collect()
        })
        .collect();
    for (i, block) in out.iter().enumerate() {
        mpc.assert_storage(i, block.iter().map(WordSized::words).sum());
    }
    out
}

/// Routes items to equal blocks of `block_size` in arrival order. Uses the
/// tree-based prefix sums for the per-machine offsets (the star version
/// would overload machine 0 for large clusters), then one routing round.
fn rebalance<T>(mpc: &mut Mpc, data: Dist<T>, block_size: usize) -> Dist<T>
where
    T: Ord + Clone + WordSized + Wire,
{
    let p = mpc.machines();
    // One single-word item per machine: its local count. The inclusive scan
    // minus the count is the machine's exclusive offset.
    let counts: Dist<u64> = (0..p).map(|i| vec![data[i].len() as u64]).collect();
    let scanned = prefix_sums(mpc, &counts, |a, b| a + b);
    let my_offset: Vec<u64> = (0..p)
        .map(|i| scanned[i][0] - data[i].len() as u64)
        .collect();
    let routed = mpc.round(|i| {
        data[i]
            .iter()
            .enumerate()
            .map(|(k, item)| {
                let pos = my_offset[i] as usize + k;
                ((pos / block_size).min(p - 1), item.clone())
            })
            .collect::<Vec<_>>()
    });
    routed
        .into_iter()
        .map(|inbox| inbox.into_iter().map(|(_, item)| item).collect())
        .collect()
}

/// Constant-round regular-sampling sort on balanced blocks of distinct keys.
fn sample_sort<T>(mpc: &mut Mpc, mut local: Dist<T>, block_size: usize) -> Dist<T>
where
    T: Ord + Clone + WordSized + Wire,
{
    let p = mpc.machines();
    let total: usize = local.iter().map(Vec::len).sum();
    for block in &mut local {
        block.sort();
    }
    // Round: evenly spaced samples to machine 0.
    let samples_round = mpc.round(|i| {
        let block = &local[i];
        if block.is_empty() {
            return vec![];
        }
        let count = (p - 1).min(block.len());
        let picks: Vec<T> = (1..=count)
            .map(|k| block[k * block.len() / (count + 1)].clone())
            .collect();
        vec![(0usize, picks)]
    });
    let mut all_samples: Vec<T> = samples_round[0]
        .iter()
        .flat_map(|(_, v)| v.iter().cloned())
        .collect();
    all_samples.sort();
    let splitters: Vec<T> = if all_samples.is_empty() {
        Vec::new()
    } else {
        (1..p)
            .map(|k| all_samples[(k * all_samples.len() / p).min(all_samples.len() - 1)].clone())
            .collect()
    };
    // Round: broadcast the splitters.
    let _ = mpc.round(|i| {
        if i == 0 && !splitters.is_empty() {
            (1..p).map(|dst| (dst, splitters.clone())).collect()
        } else {
            vec![]
        }
    });
    // Round: bucket exchange.
    let bucket_of = |item: &T| -> usize {
        if splitters.is_empty() {
            0
        } else {
            splitters.partition_point(|s| s <= item)
        }
    };
    let buckets_in = mpc.round(|i| {
        local[i]
            .iter()
            .map(|item| (bucket_of(item), item.clone()))
            .collect::<Vec<_>>()
    });
    let mut buckets: Dist<T> = buckets_in
        .into_iter()
        .map(|inbox| inbox.into_iter().map(|(_, item)| item).collect::<Vec<T>>())
        .collect();
    for block in &mut buckets {
        block.sort();
    }
    // Exact re-blocking (3 rounds).
    let rebalanced = rebalance(mpc, buckets, block_size);
    debug_assert_eq!(rebalanced.iter().map(Vec::len).sum::<usize>(), total);
    rebalanced
}

/// Block-bitonic merge-split sort: pads every machine to exactly
/// `block_size` items (padding sorts last), runs the bitonic network at
/// block granularity — each compare-exchange is one round in which the two
/// partner machines swap their blocks and keep the lower/upper
/// `block_size` items of the merge — then strips the padding. `O(log² M)`
/// rounds. By the 0-1 principle, merge-split along a sorting network sorts
/// any blocked sequence.
fn bitonic_sort<T>(mpc: &mut Mpc, local: Dist<Keyed<T>>, block_size: usize) -> Dist<Keyed<T>>
where
    T: Ord + Clone + WordSized + Wire,
{
    let p = mpc.machines();
    let pp = p.next_power_of_two();
    // The network runs on a power-of-two machine count; machines `p..pp`
    // are *virtual* all-padding blocks (the standard input-padding of
    // bitonic networks). Real machines always hold exactly `block_size`
    // items, so their memory bound is respected; traffic to/from virtual
    // blocks is charged like ordinary traffic.
    let mut blocks: Dist<Keyed<T>> = local;
    for block in &mut blocks {
        block.sort();
        block.resize(block_size, Keyed::Pad);
    }
    blocks.resize(pp, vec![Keyed::Pad; block_size]);
    let block_words = |b: &Vec<Keyed<T>>| b.iter().map(WordSized::words).sum::<usize>() as u64;
    let mut k = 2usize;
    while k <= pp {
        let mut j = k / 2;
        while j >= 1 {
            // One round: real partner pairs exchange blocks through the
            // simulator; pairs with a virtual side are merged centrally and
            // charged as traffic.
            let _ = mpc.round(|i| {
                let partner = i ^ j;
                if partner < p && partner != i {
                    vec![(partner, blocks[i].clone())]
                } else {
                    Vec::new()
                }
            });
            let mut next = blocks.clone();
            for i in 0..pp {
                let partner = i ^ j;
                if partner <= i {
                    continue; // handle each pair once, from the low side
                }
                // Mid-network, virtual blocks can legitimately hold real
                // items (descending regions push max-halves upward), so
                // every pair participates; traffic touching a virtual slot
                // is charged like an ordinary block exchange.
                if i >= p || partner >= p {
                    mpc.charge_traffic(2, 2 * block_words(&blocks[i.min(p - 1)]));
                }
                let mut merged: Vec<Keyed<T>> = blocks[i]
                    .iter()
                    .cloned()
                    .chain(blocks[partner].iter().cloned())
                    .collect();
                merged.sort();
                let ascending = (i & k) == 0;
                let (low, high) = merged.split_at(block_size);
                if ascending {
                    next[i] = low.to_vec();
                    next[partner] = high.to_vec();
                } else {
                    next[i] = high.to_vec();
                    next[partner] = low.to_vec();
                }
            }
            blocks = next;
            j /= 2;
        }
        k *= 2;
    }
    blocks.truncate(p);
    blocks
}

/// Inclusive prefix "sums" w.r.t. the associative `op` (Definition 5.2):
/// afterwards position `j` (in global order) holds `x₀ ⊕ … ⊕ x_j`.
///
/// Machine totals travel up an aggregation tree of fan-in `≈ √S` and the
/// carries travel back down — `2 · depth = O(1/α)` rounds, exactly the
/// aggregation-tree structure of Definition 5.4.
pub fn prefix_sums<T, F>(mpc: &mut Mpc, data: &Dist<T>, mut op: F) -> Dist<T>
where
    T: Clone + WordSized + Wire,
    F: FnMut(&T, &T) -> T,
{
    let p = mpc.machines();
    assert_eq!(data.len(), p, "one block per machine required");
    // Local inclusive scans.
    let mut scans: Dist<T> = Vec::with_capacity(p);
    for block in data {
        let mut acc: Option<T> = None;
        let mut scan = Vec::with_capacity(block.len());
        for item in block {
            let next = match &acc {
                None => item.clone(),
                Some(a) => op(a, item),
            };
            scan.push(next.clone());
            acc = Some(next);
        }
        scans.push(scan);
    }
    // Tree fan-in sized so that a parent's incoming totals fit its budget.
    let fanout = (((mpc.memory_words() as f64).sqrt().floor() as usize).max(2)).min(p.max(2));
    // Upward pass: level l groups machines into blocks of fanout^l; the
    // leader (lowest machine) of each group learns the group's total.
    // `group_total[i]` = combined total of machine i's current group.
    let mut group_total: Vec<Option<T>> = (0..p).map(|i| scans[i].last().cloned()).collect();
    let mut levels: Vec<usize> = Vec::new(); // group sizes per level
    {
        let mut span = 1usize;
        while span < p {
            levels.push(span);
            let next_span = span * fanout;
            // One round: group leaders send their totals to the super-group
            // leader.
            let totals_in = mpc.round(|i| {
                if i % span == 0 && i % next_span != 0 {
                    match &group_total[i] {
                        Some(t) => vec![(i - i % next_span, vec![t.clone()])],
                        None => vec![],
                    }
                } else {
                    vec![]
                }
            });
            for leader in (0..p).step_by(next_span) {
                let mut acc = group_total[leader].clone();
                let mut incoming: Vec<(usize, &Vec<T>)> =
                    totals_in[leader].iter().map(|(s, v)| (*s, v)).collect();
                incoming.sort_by_key(|(s, _)| *s);
                for (_, v) in incoming {
                    if let Some(t) = v.first() {
                        acc = Some(match &acc {
                            None => t.clone(),
                            Some(a) => op(a, t),
                        });
                    }
                }
                group_total[leader] = acc;
            }
            span = next_span;
        }
    }
    // Downward pass: each leader distributes exclusive carries to its
    // sub-group leaders. `carry[i]` = combined total of everything before
    // machine i's current group.
    let mut carry: Vec<Option<T>> = vec![None; p];
    // Recompute per-level group totals bottom-up for the distribution
    // (leaders retained them during the upward pass).
    for &span in levels.iter().rev() {
        let next_span = span * fanout;
        // One round: super-group leaders send carries to group leaders.
        // We compute them centrally from the retained sub-totals.
        let mut outgoing: Vec<Vec<(usize, Vec<T>)>> = vec![Vec::new(); p];
        for super_leader in (0..p).step_by(next_span) {
            let mut acc = carry[super_leader].clone();
            let mut sub = super_leader;
            while sub < (super_leader + next_span).min(p) {
                if sub != super_leader {
                    if let Some(c) = &acc {
                        outgoing[super_leader].push((sub, vec![c.clone()]));
                    }
                }
                // Extend the carry by this sub-group's own total, which is
                // the group_total computed at this level. Recompute it from
                // the scans to stay correct for every level.
                let mut sub_total: Option<T> = None;
                for i in sub..(sub + span).min(p) {
                    if let Some(t) = scans[i].last() {
                        sub_total = Some(match &sub_total {
                            None => t.clone(),
                            Some(a) => op(a, t),
                        });
                    }
                }
                if let Some(t) = sub_total {
                    acc = Some(match &acc {
                        None => t,
                        Some(a) => op(a, &t),
                    });
                }
                sub += span;
            }
        }
        let carries_in = mpc.round(|i| outgoing[i].clone());
        for i in 0..p {
            if let Some((_, c)) = carries_in[i].first() {
                carry[i] = c.first().cloned();
            }
        }
    }
    for i in 0..p {
        if let Some(c) = &carry[i] {
            for item in &mut scans[i] {
                *item = op(c, item);
            }
        }
    }
    scans
}

/// Segmented inclusive scan: like [`prefix_sums`] but the accumulator resets
/// whenever the key changes (data must be grouped by key, e.g. sorted).
/// This is the aggregation-tree workhorse of Definition 5.4.
pub fn segmented_scan<T, K, KF, F>(mpc: &mut Mpc, data: &Dist<T>, mut key_of: KF, op: F) -> Dist<T>
where
    T: Clone + WordSized + Wire,
    K: PartialEq + Clone + Wire,
    KF: FnMut(&T) -> K,
    F: Fn(&T, &T) -> T,
{
    // Wrap values as (key, value) and use the standard segmented-combine
    // monoid through the generic prefix machinery. Keys travel with the
    // items, so the extra word cost is constant per item.
    struct Tagged<T, K>(K, T);
    impl<T: WordSized, K> WordSized for Tagged<T, K> {
        fn words(&self) -> usize {
            self.1.words() + 1
        }
    }
    impl<T: Clone, K: Clone> Clone for Tagged<T, K> {
        fn clone(&self) -> Self {
            Tagged(self.0.clone(), self.1.clone())
        }
    }
    impl<T: Wire, K: Wire> Wire for Tagged<T, K> {
        fn wire_bits(&self) -> u32 {
            self.0.wire_bits() + self.1.wire_bits()
        }
        fn wire_encode(&self, out: &mut Vec<u8>) {
            self.0.wire_encode(out);
            self.1.wire_encode(out);
        }
        fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
            Some(Tagged(K::wire_decode(buf)?, T::wire_decode(buf)?))
        }
    }
    let tagged: Dist<Tagged<T, K>> = data
        .iter()
        .map(|block| block.iter().map(|x| Tagged(key_of(x), x.clone())).collect())
        .collect();
    let scanned = prefix_sums(mpc, &tagged, |a, b| {
        if a.0 == b.0 {
            Tagged(b.0.clone(), op(&a.1, &b.1))
        } else {
            Tagged(b.0.clone(), b.1.clone())
        }
    });
    scanned
        .into_iter()
        .map(|block| block.into_iter().map(|t| t.1).collect())
        .collect()
}

/// Definition 5.3: for collections `A` and (multiset) `B` of `(set, value)`
/// pairs, reports for every element of `A` whether its value occurs in the
/// same set of `B`. Output order follows the sorted order.
pub fn set_difference(
    mpc: &mut Mpc,
    a: &Dist<(u64, u64)>,
    b: &Dist<(u64, u64)>,
) -> Dist<((u64, u64), bool)> {
    let p = mpc.machines();
    // Tag: B sorts before A within a (set, value) run.
    let tagged: Dist<(u64, u64, u64)> = (0..p)
        .map(|i| {
            let mut block: Vec<(u64, u64, u64)> = b[i].iter().map(|&(s, v)| (s, v, 0)).collect();
            block.extend(a[i].iter().map(|&(s, v)| (s, v, 1)));
            block
        })
        .collect();
    let sorted = sort(mpc, tagged);
    // Map each element to a "B seen" flag, then segmented OR over the
    // (set, value) runs: B elements sort first within a run, so an A
    // element's inclusive scan is 1 iff its run contains a B element.
    let flagged: Dist<(u64, u64, u64)> = sorted
        .iter()
        .map(|block| {
            block
                .iter()
                .map(|&(s, v, tag)| (s, v, u64::from(tag == 0)))
                .collect()
        })
        .collect();
    let marks: Dist<(u64, u64, u64)> = segmented_scan(
        mpc,
        &flagged,
        |&(s, v, _)| (s, v),
        |x, y| (y.0, y.1, x.2.max(y.2)),
    );
    sorted
        .iter()
        .zip(marks.iter())
        .map(|(sblock, mblock)| {
            sblock
                .iter()
                .zip(mblock.iter())
                .filter(|((_, _, tag), _)| *tag == 1)
                .map(|(&(s, v, _), &(_, _, seen))| ((s, v), seen == 1))
                .collect()
        })
        .collect()
}

/// Corollary 5.2: the rank (0-based) of every element within its set, for a
/// collection of `(set, value)` pairs with distinct values per set. Output
/// follows the sorted order.
pub fn ranks(mpc: &mut Mpc, a: &Dist<(u64, u64)>) -> Dist<((u64, u64), u64)> {
    let sorted = sort(mpc, a.clone());
    let tagged: Dist<(u64, u64, u64)> = sorted
        .iter()
        .map(|block| block.iter().map(|&(s, v)| (s, v, 1u64)).collect())
        .collect();
    let counted = segmented_scan(mpc, &tagged, |&(s, _, _)| s, |x, y| (y.0, y.1, x.2 + y.2));
    counted
        .into_iter()
        .map(|block| block.into_iter().map(|(s, v, c)| ((s, v), c - 1)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn sort_orders_and_blocks() {
        let mut mpc = Mpc::new(4, 16);
        let mut rng = StdRng::seed_from_u64(1);
        let items: Vec<u64> = (0..48).map(|_| rng.gen_range(0..1000)).collect();
        let dist = scatter(4, &items);
        let sorted = sort(&mut mpc, dist);
        let flat = gather(&sorted);
        let mut expect = items.clone();
        expect.sort_unstable();
        assert_eq!(flat, expect);
        // Block sizes are ⌈N/M⌉ except possibly the tail.
        assert!(sorted[..3].iter().all(|b| b.len() == 12));
    }

    #[test]
    fn sort_handles_duplicates_and_empty() {
        let mut mpc = Mpc::new(3, 16);
        let items = vec![5u64; 20];
        let sorted = sort(&mut mpc, scatter(3, &items));
        assert_eq!(gather(&sorted), items);

        let mut mpc2 = Mpc::new(3, 16);
        let empty: Vec<u64> = vec![];
        let sorted = sort(&mut mpc2, scatter(3, &empty));
        assert!(gather(&sorted).is_empty());
    }

    #[test]
    fn sort_uses_constant_rounds() {
        // Rebalance (3) + sample/splitter/bucket (3) + re-blocking (3).
        let mut mpc = Mpc::new(4, 32);
        let items: Vec<u64> = (0..100).rev().collect();
        let _ = sort(&mut mpc, scatter(4, &items));
        assert_eq!(mpc.rounds(), 9);
        // The round count is independent of the input size.
        let mut mpc2 = Mpc::new(4, 200);
        let more: Vec<u64> = (0..600).rev().collect();
        let _ = sort(&mut mpc2, scatter(4, &more));
        assert_eq!(mpc2.rounds(), 9);
    }

    #[test]
    fn prefix_sums_match_reference() {
        for machines in [2usize, 4, 7] {
            let mut mpc = Mpc::new(machines, 16);
            let items: Vec<u64> = (1..=30).collect();
            let dist = scatter(machines, &items);
            let scanned = prefix_sums(&mut mpc, &dist, |a, b| a + b);
            // Reference: per-position inclusive sums in the distributed
            // order.
            let order = gather(&dist);
            let flat = gather(&scanned);
            let mut acc = 0;
            for (x, s) in order.iter().zip(flat.iter()) {
                acc += x;
                assert_eq!(*s, acc, "machines = {machines}");
            }
        }
    }

    #[test]
    fn prefix_sums_with_max_operator() {
        let mut mpc = Mpc::new(3, 8);
        let items = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let dist: Dist<u64> = vec![
            items[..3].to_vec(),
            items[3..6].to_vec(),
            items[6..].to_vec(),
        ];
        let scanned = prefix_sums(&mut mpc, &dist, |a, b| *a.max(b));
        let flat = gather(&scanned);
        assert_eq!(flat, vec![3, 3, 4, 4, 5, 9, 9, 9]);
    }

    #[test]
    fn segmented_scan_resets_at_key_change() {
        let mut mpc = Mpc::new(2, 16);
        // (key, value) grouped by key across the machine boundary.
        let dist: Dist<(u64, u64, u64)> = vec![
            vec![(1, 0, 10), (1, 0, 20), (2, 0, 1)],
            vec![(2, 0, 2), (2, 0, 3), (3, 0, 7)],
        ];
        let scanned = segmented_scan(
            &mut mpc,
            &dist,
            |&(k, _, _)| k,
            |a, b| (b.0, b.1, a.2 + b.2),
        );
        let values: Vec<u64> = gather(&scanned).iter().map(|&(_, _, v)| v).collect();
        assert_eq!(values, vec![10, 30, 1, 3, 6, 7]);
    }

    #[test]
    fn set_difference_matches_hashset_reference() {
        let mut rng = StdRng::seed_from_u64(9);
        let a: Vec<(u64, u64)> = (0..40)
            .map(|_| (rng.gen_range(0..4), rng.gen_range(0..20)))
            .collect();
        let b: Vec<(u64, u64)> = (0..30)
            .map(|_| (rng.gen_range(0..4), rng.gen_range(0..20)))
            .collect();
        let reference: std::collections::HashSet<(u64, u64)> = b.iter().copied().collect();
        let mut mpc = Mpc::new(4, 64);
        let result = set_difference(&mut mpc, &scatter(4, &a), &scatter(4, &b));
        let mut seen = 0;
        for block in &result {
            for &((s, v), in_b) in block {
                assert_eq!(in_b, reference.contains(&(s, v)), "element ({s},{v})");
                seen += 1;
            }
        }
        assert_eq!(seen, a.len());
    }

    #[test]
    fn ranks_match_per_set_order() {
        let a: Vec<(u64, u64)> = vec![(0, 30), (1, 5), (0, 10), (1, 50), (0, 20), (1, 7)];
        let mut mpc = Mpc::new(3, 32);
        let result = ranks(&mut mpc, &scatter(3, &a));
        let flat = gather(&result);
        for ((s, v), r) in flat {
            let expected = a.iter().filter(|&&(s2, v2)| s2 == s && v2 < v).count() as u64;
            assert_eq!(r, expected, "rank of ({s},{v})");
        }
    }

    #[test]
    fn memory_is_respected_during_sort() {
        let mut mpc = Mpc::new(5, 32);
        let items: Vec<u64> = (0..150).map(|i| (i * 7919) % 1000).collect();
        let _ = sort(&mut mpc, scatter(5, &items));
        assert!(mpc.metrics().max_storage_words <= 4 * 32);
    }
}
