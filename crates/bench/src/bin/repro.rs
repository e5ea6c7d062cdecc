//! `repro` — regenerate every R-Table and R-Figure of the reconstructed
//! evaluation (DESIGN.md §4).
//!
//! ```sh
//! cargo run --release -p scholar-bench --bin repro -- all
//! cargo run --release -p scholar-bench --bin repro -- table2 fig5
//! ```
//!
//! Output goes to stdout and, per artifact, to `results/<id>.txt` (and
//! `.csv` for figures). Wall-clock cells — the `time` column of R-Tables 2
//! and 6, and all of R-Fig 4 — go to `results/timing/` instead, so every
//! file directly under `results/` is the same bytes on every run.

use scholar_bench::experiments;
use std::fs;
use std::path::Path;

/// Where the wall-clock artifacts go.
const TIMING: &str = "results/timing";

fn write(dir: &str, file: &str, text: &str) {
    fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {dir}/: {e}"));
    let path = Path::new(dir).join(file);
    fs::write(&path, text).unwrap_or_else(|e| panic!("cannot write {path:?}: {e}"));
}

fn save(id: &str, text: &str) {
    write("results", &format!("{id}.txt"), text);
}

fn save_csv(id: &str, csv: &str) {
    write("results", &format!("{id}.csv"), csv);
}

fn run_one(id: &str) {
    let t0 = std::time::Instant::now();
    match id {
        "table1" => {
            let t = experiments::table1();
            println!("{t}");
            save(id, &t.render());
        }
        "table2" => {
            let (mut quality, mut timing) = (String::new(), String::new());
            for (q, t) in experiments::table2() {
                println!("{q}\n{t}");
                quality.push_str(&q.render());
                quality.push('\n');
                timing.push_str(&t.render());
                timing.push('\n');
            }
            save(id, &quality);
            write(TIMING, "table2.txt", &timing);
        }
        "table3" => {
            let t = experiments::table3();
            println!("{t}");
            save(id, &t.render());
        }
        "table4" => {
            let t = experiments::table4();
            println!("{t}");
            save(id, &t.render());
        }
        "table5" => {
            let t = experiments::table5();
            println!("{t}");
            save(id, &t.render());
        }
        "fig1" => {
            let f = experiments::fig1();
            println!("{f}");
            save(id, &f.render());
            save_csv(id, &f.to_csv());
        }
        "fig2" => {
            let f = experiments::fig2();
            println!("{f}");
            save(id, &f.render());
            save_csv(id, &f.to_csv());
        }
        "fig3" => {
            let f = experiments::fig3();
            println!("{f}");
            save(id, &f.render());
            save_csv(id, &f.to_csv());
        }
        "fig4" => {
            let (a, b) = experiments::fig4();
            println!("{a}\n{b}");
            write(TIMING, "fig4.txt", &format!("{}\n{}", a.render(), b.render()));
            write(TIMING, "fig4a.csv", &a.to_csv());
            write(TIMING, "fig4b.csv", &b.to_csv());
        }
        "fig5" => {
            let f = experiments::fig5();
            println!("{f}");
            save(id, &f.render());
            save_csv(id, &f.to_csv());
        }
        "fig6" => {
            let (a, b) = experiments::fig6();
            println!("{a}\n{b}");
            save(id, &format!("{}\n{}", a.render(), b.render()));
            save_csv("fig6a", &a.to_csv());
            save_csv("fig6b", &b.to_csv());
        }
        "fig7" => {
            let f = experiments::fig7();
            println!("{f}");
            save(id, &f.render());
            save_csv(id, &f.to_csv());
        }
        "fig8" => {
            let f = experiments::fig8();
            println!("{f}");
            save(id, &f.render());
            save_csv(id, &f.to_csv());
        }
        "fig9" => {
            let f = experiments::fig9();
            println!("{f}");
            save(id, &f.render());
            save_csv(id, &f.to_csv());
        }
        "table6" => {
            let (q, t) = experiments::table6();
            println!("{q}\n{t}");
            save(id, &q.render());
            write(TIMING, "table6.txt", &t.render());
        }
        "table7" => {
            let t = experiments::table7();
            println!("{t}");
            save(id, &t.render());
        }
        "sig" => {
            let t = experiments::significance();
            println!("{t}");
            save(id, &t.render());
        }
        "table8" => {
            let t = experiments::table8();
            println!("{t}");
            save(id, &t.render());
        }
        "table9" => {
            let t = experiments::table9();
            println!("{t}");
            save(id, &t.render());
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            eprintln!("known: {}", ALL.join(" "));
            std::process::exit(2);
        }
    }
    eprintln!("[{id} done in {:.1}s]\n", t0.elapsed().as_secs_f64());
}

const ALL: &[&str] = &[
    "table1", "table2", "sig", "table3", "table4", "table5", "table6", "table7", "table8",
    "table9", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: repro <experiment>... | all");
        eprintln!("experiments: {}", ALL.join(" "));
        std::process::exit(2);
    }
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        ALL.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for id in ids {
        run_one(id);
    }
}
