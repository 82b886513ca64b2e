//! The CMU Warp case study (paper §5) plus the §4 array scaling rules.
//!
//! ```bash
//! cargo run --example warp_machine
//! ```

use kung_balance::core::{GrowthLaw, Words};
use kung_balance::parallel::topology::{render_linear_array, render_mesh};
use kung_balance::parallel::warp::{case_study, default_computations};
use kung_balance::parallel::{warp_array, warp_cell, Topology};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("The Warp cell (10 MFLOP/s, 20 Mword/s, 64K words):\n");
    println!("{}\n", warp_cell());

    println!("{}", case_study(&default_computations())?);

    // §4.1: a linear array of p such cells behind one I/O port.
    println!("\n{}", render_linear_array(6));
    let matrix_law = GrowthLaw::Polynomial { degree: 2.0 };
    let m_old = Words::new(4096);
    println!("linear array, matrix computations (M_old = {m_old}):");
    println!("{:>6} {:>16} {:>16}", "p", "per-PE memory", "total");
    for p in [1u64, 2, 4, 8, 16, 32] {
        let array = Topology::linear(p)?;
        let per_pe = array.required_memory_per_pe(matrix_law, m_old)?;
        let total = array.required_total_memory(matrix_law, m_old)?;
        println!("{:>6} {:>16} {:>16}", p, per_pe.get(), total.get());
    }
    println!("→ each PE's memory must grow linearly with p (paper §4.1)\n");

    // §4.2: the square mesh is self-balancing for matrix computations.
    println!("{}", render_mesh(3));
    println!("square mesh, matrix computations (M_old = {m_old}):");
    println!("{:>6} {:>8} {:>16}", "p", "cells", "per-PE memory");
    for p in [1u64, 2, 4, 8, 16, 32] {
        let mesh = Topology::mesh(p)?;
        let per_pe = mesh.required_memory_per_pe(matrix_law, m_old)?;
        println!("{:>6} {:>8} {:>16}", p, mesh.pe_count(), per_pe.get());
    }
    println!("→ constant per-PE memory: the mesh rebalances itself (paper §4.2)\n");

    // ... but not for 3-dimensional grid computations:
    let grid3 = GrowthLaw::Polynomial { degree: 3.0 };
    println!("square mesh, 3-d grid computations:");
    println!("{:>6} {:>16}", "p", "per-PE memory");
    for p in [2u64, 4, 8, 16] {
        let mesh = Topology::mesh(p)?;
        println!(
            "{:>6} {:>16}",
            p,
            mesh.required_memory_per_pe(grid3, m_old)?.get()
        );
    }
    println!("→ grows like p: \"an automatically rebalanced, square processor");
    println!("   array is never possible\" for d > 2 (paper §4.2)");

    // The 10-cell production machine, summarized.
    let agg = warp_array().aggregate(warp_cell())?;
    println!(
        "\n10-cell Warp as one PE: C = {:.0e} op/s, IO = {:.0e} word/s, M = {}",
        agg.comp_bw().get(),
        agg.io_bw().get(),
        agg.memory()
    );
    Ok(())
}
