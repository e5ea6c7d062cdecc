//! `repro` — regenerate every R-Table and R-Figure of the reconstructed
//! evaluation (DESIGN.md §4).
//!
//! ```sh
//! cargo run --release -p scholar-bench --bin repro -- all
//! cargo run --release -p scholar-bench --bin repro -- table2 fig5
//! ```
//!
//! Output goes to stdout and, per artifact, to `results/<id>.txt` (and
//! `.csv` for figures).

use scholar_bench::experiments;
use std::fs;
use std::path::PathBuf;

fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    fs::create_dir_all(&dir).expect("cannot create results/");
    dir
}

fn save(id: &str, text: &str) {
    let path = results_dir().join(format!("{id}.txt"));
    fs::write(&path, text).unwrap_or_else(|e| panic!("cannot write {path:?}: {e}"));
}

fn save_csv(id: &str, csv: &str) {
    let path = results_dir().join(format!("{id}.csv"));
    fs::write(&path, csv).unwrap_or_else(|e| panic!("cannot write {path:?}: {e}"));
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
            let mut all = String::new();
            for t in experiments::table2() {
                println!("{t}");
                all.push_str(&t.render());
                all.push('\n');
            }
            save(id, &all);
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
            save(id, &format!("{}\n{}", a.render(), b.render()));
            save_csv("fig4a", &a.to_csv());
            save_csv("fig4b", &b.to_csv());
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
            let t = experiments::table6();
            println!("{t}");
            save(id, &t.render());
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
