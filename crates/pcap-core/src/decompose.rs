//! Lossless decomposition of the whole-run LP at global synchronization
//! vertices.
//!
//! The paper solves whole-run LPs with a commercial solver. Our from-scratch
//! simplex handles the same per-iteration structure by exploiting what the
//! paper's own instrumentation provides (§5.2): every benchmark calls
//! `MPI_Pcontrol` at iteration boundaries, and those markers — plus every
//! collective — are *global* synchronization vertices where all ranks meet.
//!
//! Between two consecutive global syncs, the scheduling subproblems are
//! independent: no task, message, or activity window crosses the boundary
//! (every rank's chain passes through the sync vertex), so
//!
//! ```text
//! min v_finalize  ==  Σ_windows  min (window makespan)
//! ```
//!
//! and solving each window separately is exact, not a heuristic. The
//! decomposition validates this precondition edge-by-edge and merges windows
//! whenever an edge *does* span a boundary (e.g. graphs with rank-local
//! structure crossing a collective some ranks skip), so it degrades
//! gracefully to larger windows instead of producing wrong answers.

use crate::fixed_lp::{solve_window, FixedLpOptions, Window, WindowSolution};
use crate::frontiers::TaskFrontiers;
use crate::schedule::LpSchedule;
use crate::CoreResult;
use pcap_dag::{EdgeId, TaskGraph, VertexId};
use pcap_lp::SolveStats;
use pcap_machine::MachineSpec;

/// Splits the DAG into windows between consecutive global sync vertices,
/// merging any windows that an edge would otherwise span.
pub fn windows_at_syncs(graph: &TaskGraph) -> Vec<Window> {
    let topo = graph.topo_order();
    let mut pos = vec![0usize; graph.num_vertices()];
    for (i, &v) in topo.iter().enumerate() {
        pos[v.index()] = i;
    }
    // Candidate boundaries: global syncs in topo order (always includes
    // Init and Finalize).
    let syncs = graph.sync_vertices();
    // Assign each vertex the index of the last boundary at or before it.
    let mut boundary_pos: Vec<usize> = syncs.iter().map(|&s| pos[s.index()]).collect();
    boundary_pos.sort_unstable();

    // `window_of[v]` = index of the window the vertex *starts* in: the
    // number of boundaries strictly before it (a boundary vertex belongs to
    // the window it opens, except Finalize which only closes).
    let window_of = |v: VertexId| -> usize {
        let p = pos[v.index()];
        boundary_pos.partition_point(|&b| b <= p).saturating_sub(1)
    };

    // Merge windows spanned by an edge: union-find over window indices.
    let nwin = syncs.len().saturating_sub(1).max(1);
    let mut parent: Vec<usize> = (0..nwin).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (_, e) in graph.iter_edges() {
        let ws = window_of(e.src).min(nwin - 1);
        // The destination *closes* in the window before its own if it is a
        // boundary: an edge into a sync belongs to the window it came from.
        let wd_raw = window_of(e.dst).min(nwin - 1);
        let wd = if graph.vertex(e.dst).kind.is_global_sync() && wd_raw > 0 {
            wd_raw - 1
        } else {
            wd_raw
        };
        if ws != wd {
            // Edge spans boundaries: merge everything between.
            let (lo, hi) = (ws.min(wd), ws.max(wd));
            for w in lo..hi {
                let a = find(&mut parent, w);
                let b = find(&mut parent, w + 1);
                parent[a.max(b)] = a.min(b);
            }
        }
    }

    // Collect merged window ranges in order.
    let mut ranges: Vec<(usize, usize)> = Vec::new(); // inclusive window idx range
    let mut w = 0;
    while w < nwin {
        let root = find(&mut parent, w);
        let mut end = w;
        while end + 1 < nwin && find(&mut parent, end + 1) == root {
            end += 1;
        }
        ranges.push((w, end));
        w = end + 1;
    }

    // Materialize windows: vertices with boundary membership on both ends.
    let mut out = Vec::with_capacity(ranges.len());
    for (lo, hi) in ranges {
        let source = syncs[lo];
        let sink = syncs[hi + 1];
        let lo_pos = pos[source.index()];
        let hi_pos = pos[sink.index()];
        let vertices: Vec<VertexId> = topo
            .iter()
            .copied()
            .filter(|&v| pos[v.index()] >= lo_pos && pos[v.index()] <= hi_pos)
            .collect();
        let edges: Vec<EdgeId> = graph
            .iter_edges()
            .filter(|(_, e)| {
                let ps = pos[e.src.index()];
                ps >= lo_pos && ps < hi_pos
            })
            .map(|(id, _)| id)
            .collect();
        out.push(Window { source, sink, vertices, edges });
    }
    out
}

/// Solves the fixed-order LP window-by-window and chains the results into a
/// whole-run schedule.
pub fn solve_decomposed(
    graph: &TaskGraph,
    machine: &MachineSpec,
    frontiers: &TaskFrontiers,
    cap_w: f64,
    opts: &FixedLpOptions,
) -> CoreResult<LpSchedule> {
    let windows = windows_at_syncs(graph);
    let solved = windows.iter().map(|w| solve_window(graph, machine, frontiers, cap_w, w, opts));
    assemble_windows(graph.num_vertices(), graph.num_edges(), cap_w, solved)
}

/// Chains window solutions, in window order, into one whole-run schedule
/// at `cap_w`: each window's times shift by the makespans of the windows
/// before it, task choices merge, telemetry folds, and the first error
/// wins — no window after it is pulled from `windows`.
pub(crate) fn assemble_windows(
    num_vertices: usize,
    num_edges: usize,
    cap_w: f64,
    windows: impl IntoIterator<Item = CoreResult<WindowSolution>>,
) -> CoreResult<LpSchedule> {
    let mut schedule = LpSchedule {
        makespan_s: 0.0,
        vertex_times: vec![0.0; num_vertices],
        choices: vec![None; num_edges],
        cap_w,
        stats: SolveStats::default(),
    };
    for ws in windows {
        let ws = ws?;
        for (v, t) in ws.times {
            schedule.vertex_times[v.index()] = schedule.makespan_s + t;
        }
        for (e, c) in ws.choices.into_iter().enumerate() {
            if c.is_some() {
                schedule.choices[e] = c;
            }
        }
        schedule.makespan_s += ws.makespan_s;
        schedule.stats.absorb(&ws.stats);
    }
    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed_lp::solve_fixed_order;
    use pcap_apps::{comd, lulesh, AppParams, Benchmark};

    fn machine() -> MachineSpec {
        MachineSpec::e5_2670()
    }

    #[test]
    fn windows_cover_all_edges_exactly_once() {
        for bench in Benchmark::ALL {
            let g = bench.generate(&AppParams { ranks: 4, iterations: 3, seed: 2 });
            let windows = windows_at_syncs(&g);
            let mut seen = vec![0u32; g.num_edges()];
            for w in &windows {
                for &e in &w.edges {
                    seen[e.index()] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "{}", bench.name());
            assert!(windows.len() > 1, "{} should decompose", bench.name());
        }
    }

    #[test]
    fn decomposed_equals_whole_solve() {
        let m = machine();
        let g = comd::generate(&AppParams { ranks: 3, iterations: 2, seed: 4 });
        let fr = TaskFrontiers::build(&g, &m);
        let opts = FixedLpOptions::default();
        for cap in [70.0, 110.0, 200.0] {
            let whole = solve_fixed_order(&g, &m, &fr, cap * 3.0, &opts).unwrap();
            let dec = solve_decomposed(&g, &m, &fr, cap * 3.0, &opts).unwrap();
            let rel = (whole.makespan_s - dec.makespan_s).abs() / whole.makespan_s;
            assert!(
                rel < 1e-6,
                "cap {cap}: whole {} vs decomposed {}",
                whole.makespan_s,
                dec.makespan_s
            );
        }
    }

    #[test]
    fn decomposed_handles_point_to_point_graphs() {
        let m = machine();
        let g = lulesh::generate(&AppParams { ranks: 4, iterations: 2, seed: 4 });
        let fr = TaskFrontiers::build(&g, &m);
        let s = solve_decomposed(&g, &m, &fr, 4.0 * 60.0, &FixedLpOptions::default()).unwrap();
        assert!(s.makespan_s > 0.0);
        // Every task scheduled.
        assert_eq!(s.choices.iter().flatten().count(), g.num_tasks());
        // Vertex times monotone along every edge.
        for (id, e) in g.iter_edges() {
            let d = s.choice(id).map(|c| c.duration_s).unwrap_or(0.0);
            assert!(
                s.vertex_times[e.dst.index()] - s.vertex_times[e.src.index()] >= d - 1e-6,
                "edge {}",
                id.index()
            );
        }
    }
}
