//! One module per table/figure of the paper's evaluation.
//!
//! Every module exposes `report() -> String` (`learn::report` takes the
//! `--smoke` switch); the `tuffy-bench` binary prints and persists it
//! under `bench_results/`.

pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig8;
pub mod learn;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;

/// Renders a time-cost trace as an indented TSV block for the figures.
pub fn trace_block(label: &str, trace: &tuffy::TimeCostTrace) -> String {
    let mut out = format!("## series: {label} (seconds\tflips\tcost)\n");
    // Downsample long traces to ≤ 40 lines for readable reports.
    let pts = trace.points();
    let stride = (pts.len() / 40).max(1);
    for (i, p) in pts.iter().enumerate() {
        if i % stride == 0 || i + 1 == pts.len() {
            out.push_str(&format!(
                "  {:.3}\t{}\t{}\n",
                p.elapsed.as_secs_f64(),
                p.flips,
                p.cost
            ));
        }
    }
    out
}
