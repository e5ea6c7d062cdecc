//! `publish`: the operator's path, black-box. A corpus file goes to
//! `scholar serve --state DIR`; the clock runs from spawning the child to
//! its first complete `/top?k=10` response — once on an empty state
//! directory (cold boot), once on the directory a `SIGKILL`ed life left
//! behind (restart).
//!
//! Loader, CSR build, QRank solve, `ScoreIndex::build` and the SNAPv1
//! write/load do all the work; the request path answers two requests.

use super::{check_distribution, Env};
use crate::client::Conn;
use crate::guard::{free_port, ChildGuard, TempDir};
use crate::os;
use crate::report::{digest52, Outcome};
use crate::stats::best;
use crate::trace::Tracer;
use scholar::core::{IncrementalRanker, MixParams, QRankEngine};
use scholar::corpus::loader::{jsonl, LoadOptions};
use scholar::rank::{scores::top_k, RankContext};
use scholar::serve::{load_snapshot, snapshot::snapshot_path, write_snapshot, ScoreIndex};
use scholar::{Corpus, Preset, QRank, QRankConfig};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a child may take to answer before the boot counts as failed.
const BOOT_DEADLINE: Duration = Duration::from_secs(60);
const BOOT_POLL: Duration = Duration::from_millis(2);

/// The `/top?k=K` body the server must produce for `scores`, built
/// without `ScoreIndex`: `scores::top_k` for the order, the router's
/// field order for the objects.
pub fn reference_top_body(corpus: &Corpus, scores: &[f64], k: usize, generation: u64) -> Vec<u8> {
    let hits: Vec<sjson::Value> = top_k(scores, k)
        .into_iter()
        .enumerate()
        .map(|(pos, a)| {
            let art = &corpus.articles()[a];
            sjson::ObjectBuilder::new()
                .field("rank", (pos + 1) as i64)
                .field("id", a as i64)
                .field("score", scores[a])
                .field("title", art.title.as_str())
                .field("year", art.year)
                .field("venue", corpus.venue(art.venue).name.as_str())
                .build()
        })
        .collect();
    sjson::ObjectBuilder::new()
        .field("generation", generation as i64)
        .field("count", hits.len() as i64)
        .field("results", sjson::Value::Array(hits))
        .build()
        .to_string_compact()
        .into_bytes()
}

/// One life of the child: up, answered once, still running.
struct Boot {
    child: ChildGuard,
    conn: Conn,
    /// Spawn → first complete `/top?k=10` response.
    secs: f64,
    /// Child CPU (all threads, user + system) at that moment.
    cpu_ms: f64,
}

fn boot(env: &Env, corpus: &Path, state: &Path, log: &Path) -> Result<Boot, String> {
    let port = free_port().map_err(|e| format!("no free port: {e}"))?;
    let addr: SocketAddr = ([127, 0, 0, 1], port).into();
    let log_file = std::fs::File::create(log).map_err(|e| format!("child log: {e}"))?;
    let log_err = log_file.try_clone().map_err(|e| format!("child log: {e}"))?;
    let started = Instant::now();
    let child = Command::new(&env.scholar_bin)
        .arg("serve")
        .arg(corpus)
        .arg("--state")
        .arg(state)
        .args(["--workers", "1", "--addr", &addr.to_string()])
        // The CLI serves until stdin closes; the pipe lives as long as
        // the guard, so a benchmark that dies takes the child with it.
        .stdin(Stdio::piped())
        .stdout(log_file)
        .stderr(log_err)
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", env.scholar_bin.display()))?;
    let mut child = ChildGuard::new(child);
    loop {
        if let Some(status) = child.exited() {
            let tail = std::fs::read_to_string(log).unwrap_or_default();
            return Err(format!("child exited before serving ({status}): {}", tail.trim()));
        }
        if started.elapsed() > BOOT_DEADLINE {
            return Err(format!("no response within {BOOT_DEADLINE:?}"));
        }
        // Refused until the listener is bound, which the CLI does only
        // once generation 1 is published.
        if let Ok(mut conn) = Conn::connect(addr) {
            match conn.get("/top?k=10") {
                Ok((200, _)) => {
                    let secs = started.elapsed().as_secs_f64();
                    // The kernel truncates to whole ticks; a boot shorter
                    // than one (smoke) still cost something, so the floor
                    // is the resolution, not zero.
                    let cpu_ms = os::process_cpu_ms(Some(child.pid()))
                        .zip(os::clock_tick_ms())
                        .map_or(0.0, |(ms, tick)| ms.max(tick));
                    return Ok(Boot { child, conn, secs, cpu_ms });
                }
                Ok((status, body)) => {
                    return Err(format!(
                        "first response was {status}: {}",
                        String::from_utf8_lossy(&body)
                    ))
                }
                Err(_) => {}
            }
        }
        std::thread::sleep(BOOT_POLL);
    }
}

/// Fetch `/top?k=100`, read the child's peak RSS, then `SIGKILL` it.
fn finish(mut boot: Boot) -> Result<(Vec<u8>, f64), String> {
    let (status, body) = boot.conn.get("/top?k=100").map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("/top?k=100 answered {status}"));
    }
    let rss = os::peak_rss_mib(Some(boot.child.pid())).unwrap_or(0.0);
    boot.child.kill();
    Ok((body, rss))
}

pub fn run(env: &Env, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // ---- set-up: corpus file + in-process reference ----
    let setup = Instant::now();
    let setup_span = tr.begin("setup", 0);
    let dir = TempDir::create(&env.work_dir, "publish").map_err(|e| format!("work dir: {e}"))?;
    let preset = if env.smoke { Preset::Tiny } else { Preset::DblpLike };
    let corpus_path = dir.path().join("corpus.jsonl");
    jsonl::write_jsonl_file(&preset.generate(env.seed), &corpus_path)
        .map_err(|e| format!("write corpus: {e}"))?;
    let file_bytes = std::fs::metadata(&corpus_path).map(|m| m.len()).unwrap_or(0);
    // The reference ranks the corpus as the program will see it: the
    // loader interns venues and authors in order of appearance, and a
    // different id order is a different floating-point summation order.
    let corpus = jsonl::read_jsonl_file(&corpus_path, &LoadOptions::default())
        .map_err(|e| format!("reload corpus: {e}"))?;
    let reference = QRank::default().run(&corpus);
    out.check(check_distribution(&reference.article_scores));
    // Both lives publish the loaded state as generation 1.
    let expected = reference_top_body(&corpus, &reference.article_scores, 100, 1);
    // The corpus file is on disk before a boot's snapshot fsync runs.
    os::flush_dirty_pages();
    tr.end(setup_span);
    let setup_s = setup.elapsed().as_secs_f64();
    out.note(format!(
        "corpus {} seed {}: {} articles, {} citations, {file_bytes} bytes of JSONL",
        preset.name(),
        env.seed,
        corpus.num_articles(),
        corpus.num_citations()
    ));

    // ---- measured: cold boot + restart, repeated for `seconds` ----
    let (mut cold, mut restart, mut cold_cpu, mut rss) = (vec![], vec![], vec![], 0.0f64);
    let measured = Instant::now();
    let mut rep = 0u64;
    while rep == 0 || (!env.smoke && !env.traced && measured.elapsed().as_secs_f64() < env.seconds)
    {
        rep += 1;
        let state = dir.path().join(format!("state-{rep}"));
        let log = dir.path().join(format!("child-{rep}.log"));
        let mut bodies = Vec::new();
        for (life, samples) in [("publish.cold_boot", &mut cold), ("publish.restart", &mut restart)]
        {
            let span = tr.begin(life, rep);
            let booted = boot(env, &corpus_path, &state, &log);
            tr.end(span);
            out.attempted += 1;
            match booted.and_then(|b| {
                let (secs, cpu_ms) = (b.secs, b.cpu_ms);
                finish(b).map(|(body, hwm)| (secs, cpu_ms, body, hwm))
            }) {
                Ok((secs, cpu_ms, body, hwm)) => {
                    samples.push(secs * 1000.0);
                    if life == "publish.cold_boot" {
                        cold_cpu.push(cpu_ms);
                    }
                    rss = rss.max(hwm);
                    bodies.push(body);
                }
                Err(why) => out.fail(format!("{life} #{rep}: {why}")),
            }
        }
        // The second life must have come from the snapshot, not a re-rank.
        let said = std::fs::read_to_string(&log).unwrap_or_default();
        out.check(if said.contains("restored snapshot") {
            Ok(())
        } else {
            Err(format!("restart #{rep} did not restore from the snapshot: {}", said.trim()))
        });
        out.check(match bodies.as_slice() {
            [a, b] if a == b && *a == expected => Ok(()),
            [a, b] if a != b => Err(format!("rep {rep}: cold and restarted /top?k=100 differ")),
            [_, _] => Err(format!("rep {rep}: /top?k=100 differs from the in-process reference")),
            _ => Err(format!("rep {rep}: a life produced no /top?k=100 body")),
        });
        let _ = std::fs::remove_dir_all(&state);
    }

    let each = |v: &[f64]| v.iter().map(|x| format!("{x:.0}")).collect::<Vec<_>>().join(" ");
    out.note(format!("cold boots ms: {}; restarts ms: {}", each(&cold), each(&restart)));
    out.measured(
        "primary_ms",
        best(&cold).unwrap_or(0.0),
        cold.len(),
        "cold boot: child spawn -> first complete /top?k=10 response, empty state dir",
    );
    out.measured(
        "secondary_ms",
        best(&restart).unwrap_or(0.0),
        restart.len(),
        "restart: child spawn -> first complete response on the state a SIGKILLed life left",
    );
    out.measured(
        "cpu_ms_per_op",
        best(&cold_cpu).unwrap_or(0.0),
        cold_cpu.len(),
        "child CPU (user+system, all threads) spent by the first response of a cold boot",
    );
    out.measured("peak_rss_mb", rss, 1, "largest child VmHWM over all lives");
    out.measured(
        "setup_s",
        setup_s,
        1,
        "generate corpus, write JSONL, load it back, in-process reference solve",
    );

    if env.traced {
        out.layer("publish.topk_digest", digest52(expected.iter().copied()));
        out.layer("corpus.file_bytes", file_bytes as f64);
        replay_pipeline(tr, &corpus_path, &dir, file_bytes, &mut out)?;
    }
    Ok(out)
}

/// The traced run's attribution: the public calls the CLI makes between
/// reading the file and binding the socket, and between mapping the
/// snapshot and binding it, each under its own span.
fn replay_pipeline(
    tr: &mut Tracer,
    corpus_path: &Path,
    dir: &TempDir,
    file_bytes: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    const OP: u64 = 1 << 32;
    let config = QRankConfig::default();
    let parent = tr.begin("publish.pipeline_replay", OP);

    let (loaded, secs) = tr
        .timed("corpus.load", OP, |_| jsonl::read_jsonl_file(corpus_path, &LoadOptions::default()));
    let corpus = loaded.map_err(|e| format!("reload corpus: {e}"))?;
    out.layer("corpus.load_s", secs);
    out.layer("corpus.load_mb_per_s", file_bytes as f64 / 1e6 / secs);

    let (edges, secs) = tr.timed("sgraph.csr_build", OP, |_| {
        let ctx = RankContext::new(&corpus);
        ctx.decayed_citation(config.twpr.rho).graph.num_edges()
    });
    out.layer("sgraph.csr_build_s", secs);
    out.layer("sgraph.edges", edges as f64);

    let (engine, secs) =
        tr.timed("qrank.engine_build", OP, |_| QRankEngine::build(&corpus, &config));
    out.layer("qrank.engine_build_s", secs);
    let (result, secs) =
        tr.timed("qrank.solve", OP, |_| engine.solve(&MixParams::from_config(&config)));
    out.layer("qrank.solve_s", secs);
    out.layer("qrank.outer_iterations", result.outer.iterations as f64);
    out.layer("qrank.twpr_iterations", result.twpr_diagnostics.iterations as f64);
    drop(engine);

    let corpus = Arc::new(corpus);
    let (index, secs) = tr.timed("index.build", OP, |_| {
        ScoreIndex::build(Arc::clone(&corpus), result.article_scores.clone())
    });
    out.layer("index.build_s", secs);
    drop(index);

    let snap_dir = dir.path().join("replay-state");
    std::fs::create_dir_all(&snap_dir).map_err(|e| format!("replay state dir: {e}"))?;
    let (written, secs) =
        tr.timed("snapshot.write", OP, |_| write_snapshot(&snap_dir, &corpus, &result, 0));
    written.map_err(|e| format!("write snapshot: {e}"))?;
    out.layer("snapshot.write_s", secs);
    let snap_bytes = std::fs::metadata(snapshot_path(&snap_dir)).map(|m| m.len()).unwrap_or(0);
    out.layer("snapshot.bytes", snap_bytes as f64);
    tr.count("snapshot.bytes", snap_bytes as f64);

    let (restored, secs) = tr.timed("snapshot.load", OP, |_| load_snapshot(&snap_dir));
    let restored = restored.map_err(|e| format!("load snapshot: {e}"))?;
    out.layer("snapshot.load_s", secs);
    let (ranker, secs) = tr.timed("qrank.restore", OP, |_| {
        IncrementalRanker::restore(config.clone(), restored.corpus, restored.result)
    });
    out.layer("qrank.restore_s", secs);
    out.check(if ranker.result().article_scores == result.article_scores {
        Ok(())
    } else {
        Err("restored scores differ from the scores the snapshot was written from".to_string())
    });
    tr.end(parent);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use scholar::serve::http::parse_target;
    use scholar::serve::{respond, Metrics};

    #[test]
    fn reference_body_is_what_the_router_renders() {
        let corpus = Preset::Tiny.generate(5);
        let scores = QRank::default().run(&corpus).article_scores;
        let want = reference_top_body(&corpus, &scores, 100, 1);
        // Sharing an index stamps it generation 1, as both lives do.
        let shared = scholar::serve::SharedIndex::new(ScoreIndex::build(Arc::new(corpus), scores));
        let (status, body) = respond(&parse_target("/top?k=100"), &shared.load(), &Metrics::new());
        assert_eq!(status, 200);
        assert_eq!(String::from_utf8(want).unwrap(), body.to_string_compact());
    }
}
