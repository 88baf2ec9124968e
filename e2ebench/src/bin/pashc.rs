//! The `pashc` multi-call binary, built beside the benchmark so the
//! `processes` backend spawns children compiled from the same source.

use pash::runtime::cli::{multicall_main, Personality};

fn main() {
    multicall_main("pashc", Personality::Coreutils);
}
