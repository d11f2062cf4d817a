//! **Figure 9** — potential speedup of LP-derived schedules vs. Static,
//! per benchmark, across average per-socket power constraints of 30–80 W.
//!
//! Paper shape: gains are largest at the lowest caps; BT peaks at ~75%;
//! CoMD stays small (2–13%); some benchmarks cannot be scheduled at the
//! lowest constraint.

use pcap_apps::Benchmark;
use pcap_bench::table::{fmt_opt_pct, Table};
use pcap_bench::{
    cached_sweep_exact, default_sweep_path, improvement_pct, ExperimentConfig, SWEEP_CAPS,
};
use pcap_machine::MachineSpec;

fn main() {
    let machine = MachineSpec::e5_2670();
    let cfg = ExperimentConfig::default();
    let sweep = cached_sweep_exact(&default_sweep_path(), &machine, &cfg, &SWEEP_CAPS);

    let mut table = Table::new(&["W/socket", "BT", "CoMD", "LULESH", "SP"]);
    for (k, &cap) in SWEEP_CAPS.iter().enumerate() {
        let mut cells = vec![format!("{cap:.0}")];
        for bench in [Benchmark::BtMz, Benchmark::CoMD, Benchmark::Lulesh, Benchmark::SpMz] {
            let row = &sweep.iter().find(|b| b.bench == bench).unwrap().rows[k];
            let imp = match (row.times.static_, row.times.lp) {
                (Some(s), Some(l)) => Some(improvement_pct(s, l)),
                _ => None,
            };
            cells.push(fmt_opt_pct(imp));
        }
        table.row(cells);
    }
    println!("=== Figure 9: LP vs Static — potential improvement (%) ===");
    println!("{}", table.render());
    println!("{}", table.render_tsv("fig9"));
    println!(
        "note: '-' marks caps at which the benchmark could not be scheduled \
         (paper: \"Some benchmarks were not able to be scheduled at the lowest \
         average per-socket power constraint\")"
    );

    // The exact piecewise-linear frontier: the parametric ramp reports every
    // cap where a window's optimal basis changes — the grid above samples
    // the frontier, these are its true kinks.
    println!();
    println!("exact frontier breakpoints (W/socket) from the parametric ramp:");
    for b in &sweep {
        let per_socket: Vec<String> =
            b.breakpoints.iter().map(|&w| format!("{:.3}", w / cfg.ranks as f64)).collect();
        if per_socket.is_empty() {
            println!("  {:<8} (none in swept range, or per-cap mode)", b.bench.name());
        } else if b.breakpoints_total > per_socket.len() {
            println!(
                "  {:<8} {} kinks (showing {} evenly sampled): {}",
                b.bench.name(),
                b.breakpoints_total,
                per_socket.len(),
                per_socket.join(", ")
            );
        } else {
            println!(
                "  {:<8} {} kinks: {}",
                b.bench.name(),
                per_socket.len(),
                per_socket.join(", ")
            );
        }
    }

    // Solver telemetry for the LP bounds behind this figure, aggregated
    // over every (benchmark, cap) cell of the sweep.
    let mut total = pcap_lp::SolveStats::default();
    for r in sweep.iter().flat_map(|b| &b.rows) {
        total.absorb(&r.lp_stats);
    }
    if total.solves > 0 {
        println!("solver telemetry, summed over every benchmark x cap cell:");
        for (name, value) in total.fields() {
            println!("  {name:<22} {value}");
        }
    }
}
