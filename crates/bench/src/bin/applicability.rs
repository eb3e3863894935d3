//! `applicability` — Table 1 of the paper (which SMR schemes can be used with
//! which data structures) restricted to the structures and reclaimers
//! implemented in this workspace, plus the Section 5.3 usability comparison
//! (extra reclamation-related lines of code per structure).
//!
//! The "yes/no" entries follow the paper's analysis (Section B of its
//! appendix); entries marked `impl` are additionally demonstrated by this
//! repository's code (the structure is instantiated with that reclaimer in the
//! test suite).

fn main() {
    // Instrumentation must never leak into a measurement build: the
    // `check` feature is test-only (enabled by `smr-check` dev-deps).
    assert!(
        !smr_common::check::compiled_in(),
        "bench binary built with the smr-common `check` feature on; measurements would be invalid"
    );
    assert!(
        !smr_common::trace::compiled_in(),
        "bench binary built with the smr-common `trace` feature on; measurements would be invalid"
    );
    println!("Table 1 — applicability of SMR schemes to the implemented data structures");
    println!("(paper rows LL05, HL01, HM04, DGT15, B17a; `impl` = exercised by this repo's tests)");
    println!();
    println!("| structure | NBR / NBR+ | EBR family (DEBRA/QSBR/RCU/EpochPOP) | HP / HP-POP / IBR / HE / WFE |");
    println!("|---|---|---|---|");
    println!("| lazy list (LL05) | yes, impl | yes, impl | **no** (breaks wait-free contains): a Table 1 \"no\" pair; the schedule explorer finds a use-after-free for HP, IBR, HE and WFE, none found yet for HP-POP |");
    println!("| Harris list (HL01) | yes, impl | yes, impl | yes with the Harris-Michael fallback (no marked-chain walk: a scan before the hop frees the chain), impl |");
    println!("| Harris-Michael list (HM04), original | **no** (Φ_read resumes from pred) | yes, impl | yes, impl |");
    println!("| Harris-Michael list, restart-from-root variant (E4) | yes, impl | yes, impl | yes, impl |");
    println!("| DGT external BST (DGT15) | yes, impl | yes, impl | **no** (no marks ⇒ cannot validate): a Table 1 \"no\" pair; the schedule explorer finds a use-after-free for HP, HP-POP, IBR, HE and WFE |");
    println!("| (a,b)-tree (stand-in for Brown's ABTree, B17a) | yes, impl | yes, impl | no per the paper; run here with re-read validation, impl |");
    println!();
    println!("Structures the paper lists as incompatible with NBR and not built here:");
    println!("  BCCO10 / DVY14b (bottom-up rebalancing AVL trees), RM15 (internal BST),");
    println!("  EFRB14 (searches resume from ancestors), BPA20 (interpolation search tree).");
    println!();

    println!("Usability (Section 5.3, Figure 2) — extra reclamation-related lines in this repo's");
    println!("lazy-list integration, counted over insert/remove/contains:");
    println!();
    println!("| scheme | extra calls | what the programmer writes |");
    println!("|---|---|---|");
    println!("| DEBRA  | 2 per operation | begin_op / end_op |");
    println!("| NBR/NBR+ | 4 per operation + 1 checkpoint per loop | begin_op/end_op, begin/end read phase with reservations, checkpoint in the traversal |");
    println!("| HP | 2 per pointer hop + failure paths | protect on every hop, clear_protections, restart on validation failure |");
    println!();
    println!("This matches the paper's qualitative ordering DEBRA << NBR << HP (Figure 2) and its");
    println!("quantitative observation of ~10 extra lines for NBR vs ~30 for HP.");
}
