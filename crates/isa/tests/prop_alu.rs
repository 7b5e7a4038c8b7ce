//! Property tests for the functional ALU semantics and the memory image.

use std::collections::HashMap;

use proptest::prelude::*;

use ff_isa::eval::{alu, effective_address};
use ff_isa::{MemoryImage, Op};

proptest! {
    #[test]
    fn add_is_commutative(a: u64, b: u64) {
        prop_assert_eq!(alu(&Op::Add, a, b, 0), alu(&Op::Add, b, a, 0));
    }

    #[test]
    fn bitwise_ops_are_commutative(a: u64, b: u64) {
        for op in [Op::And, Op::Or, Op::Xor] {
            prop_assert_eq!(alu(&op, a, b, 0), alu(&op, b, a, 0));
        }
    }

    #[test]
    fn mul_is_commutative(a: u64, b: u64) {
        prop_assert_eq!(alu(&Op::Mul, a, b, 0), alu(&Op::Mul, b, a, 0));
    }

    #[test]
    fn add_sub_round_trips(a: u64, b: u64) {
        let sum = alu(&Op::Add, a, b, 0);
        prop_assert_eq!(alu(&Op::Sub, sum, b, 0), a);
    }

    #[test]
    fn xor_is_self_inverse(a: u64, b: u64) {
        let x = alu(&Op::Xor, a, b, 0);
        prop_assert_eq!(alu(&Op::Xor, x, b, 0), a);
    }

    #[test]
    fn compares_return_booleans(a: u64, b: u64) {
        for op in [Op::CmpEq, Op::CmpNe, Op::CmpLt] {
            let v = alu(&op, a, b, 0);
            prop_assert!(v == 0 || v == 1);
        }
        prop_assert_eq!(alu(&Op::CmpEq, a, b, 0) ^ alu(&Op::CmpNe, a, b, 0), 1);
    }

    #[test]
    fn addimm_matches_add(a: u64, imm: i32) {
        let via_imm = alu(&Op::AddImm, a, 0, imm as i64);
        let via_add = alu(&Op::Add, a, imm as i64 as u64, 0);
        prop_assert_eq!(via_imm, via_add);
    }

    #[test]
    fn division_never_panics(a: u64, b: u64) {
        let _ = alu(&Op::Div, a, b, 0);
        let _ = alu(&Op::FDiv, a, b, 0);
    }

    #[test]
    fn effective_address_is_base_plus_offset(base: u64, off: i32) {
        prop_assert_eq!(
            effective_address(base, off as i64),
            base.wrapping_add(off as i64 as u64)
        );
    }

    /// The paged memory image behaves exactly like a word-granular map with
    /// zero default: loads, the previous value a store returns, the written
    /// set (`written_words`, `iter`, `==`) and semantic equality. Addresses
    /// cluster on page boundaries and at the top of the address space, and
    /// a third of the stores write an explicit zero.
    #[test]
    fn memory_image_matches_hashmap_model(
        writes in proptest::collection::vec((address(), value()), 0..96),
        probes in proptest::collection::vec(address(), 0..48),
    ) {
        let mut mem = MemoryImage::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        for (addr, v) in &writes {
            let prev = model.insert(MemoryImage::word_addr(*addr), *v).unwrap_or(0);
            prop_assert_eq!(mem.store(*addr, *v), prev);
        }
        for p in probes.iter().chain(writes.iter().map(|(a, _)| a)) {
            let expect = model.get(&MemoryImage::word_addr(*p)).copied().unwrap_or(0);
            prop_assert_eq!(mem.load(*p), expect);
        }
        prop_assert_eq!(mem.written_words(), model.len());
        let listed: Vec<(u64, u64)> = mem.iter().collect();
        prop_assert_eq!(listed.len(), model.len());
        prop_assert_eq!(listed.into_iter().collect::<HashMap<u64, u64>>(), model.clone());

        // `==` compares written sets exactly, whatever the store order.
        let mut sorted: Vec<(u64, u64)> = model.iter().map(|(&a, &v)| (a, v)).collect();
        sorted.sort_unstable();
        let rebuilt: MemoryImage = sorted.iter().rev().copied().collect();
        prop_assert!(rebuilt == mem);
        prop_assert!(rebuilt.semantically_eq(&mem));

        // An explicit zero at an unwritten word changes `==` but not the
        // semantics; a nonzero value changes both.
        if let Some(fresh) = probes.iter().map(|&p| MemoryImage::word_addr(p)).find(|a| !model.contains_key(a)) {
            let mut zeroed = mem.clone();
            zeroed.store(fresh, 0);
            prop_assert!(zeroed != mem);
            prop_assert!(zeroed.semantically_eq(&mem) && mem.semantically_eq(&zeroed));
            zeroed.store(fresh, 1);
            prop_assert!(!zeroed.semantically_eq(&mem) && !mem.semantically_eq(&zeroed));
        }
    }
}

/// Byte addresses that stress the paging: the low words, a few bytes
/// either side of a 4 KiB page boundary, and the top of the address space.
fn address() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..0x2000,
        (1u64..64, 0u64..32)
            .prop_map(|(page, off)| (page << 12).wrapping_add(off).wrapping_sub(16)),
        (0u64..0x2000).prop_map(|off| u64::MAX - off),
    ]
}

/// Stored values, a third of them an explicit zero.
fn value() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), any::<u64>(), 1u64..4]
}
