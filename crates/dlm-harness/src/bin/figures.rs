//! Regenerate one figure, or `all` of the simulator set from one shared
//! plan (Figures 7–10, the ablation study and the latency tail: 7/8 and 9/10
//! each read two metrics off the same runs). Prints an aligned table and
//! writes `results/<name>.tsv` per figure.
//!
//! ```text
//! figures fig7|fig8|fig9|fig10|ablations|all|geo|contention|recovery
//! ```

use dlm_harness::{
    ablations, all_figures, contention, fig10, fig7, fig8, fig9, geo, recovery, render_table,
    write_tsv, FigureOptions,
};

fn main() {
    let opts = FigureOptions::default();
    let name = std::env::args().nth(1).unwrap_or_default();
    let figures = match name.as_str() {
        "fig7" => vec![fig7(&opts)],
        "fig8" => vec![fig8(&opts)],
        "fig9" => vec![fig9(&opts)],
        "fig10" => vec![fig10(&opts)],
        "ablations" => vec![ablations(&opts)],
        "all" => all_figures(&opts),
        "geo" => vec![geo(&opts)],
        "contention" => vec![contention(&opts)],
        "recovery" => vec![recovery(&opts)],
        _ => {
            eprintln!("usage: figures fig7|fig8|fig9|fig10|ablations|all|geo|contention|recovery");
            std::process::exit(2);
        }
    };
    for fig in &figures {
        println!("{}", render_table(fig));
        let path = write_tsv(fig, std::path::Path::new("results")).expect("write tsv");
        eprintln!("wrote {}", path.display());
    }
}
